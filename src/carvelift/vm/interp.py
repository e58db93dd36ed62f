"""Deterministic VM: each function is compiled once to Python source.

Three entry points:

    run_system        execute main against a SystemInput, coverage only
    run_with_tracing  same, but record each kept call as a carve (trace.py)
    call_function     execute one function against a carved world

A Program keeps its code from its first run on, with each function's
arity and the global names, so a unit execution, replayed
thousands of times from one carve, builds only its run state and
`RunResult`; the common exit statuses are built once.  `_Code` writes
one Python function per mini-language function and builds each with
its own compile(), as `dataclasses` builds its methods: parameters and lets
become Python locals, branch goals, crash positions and builtins are
names bound into the code, and a call is one Python call.  Inline fast
paths cover int + - * and comparisons, == and != on two ints, floats or
byte strings, len of bytes or a ref, byte_at and slice(b, i, j) of
bytes, indexing and storing through a ref, and a record's field.  Each
takes only the operands whose result it reads directly and calls ops.py
for the rest, so ops.py alone defines every result, crash and message.
An operand proven to be an int needs no type test.  Tracing is run
state, not code: a call site takes the traced path when its run has a
tracer, and a branch adds its goal to the run's coverage set, which the
tracer points at the innermost recorded call's set.  A loop adds its
enter goal once each time it is entered, in its first pass.

Steps are exact.  A function body keeps the run's fuel in a Python
local and subtracts each node's steps from it as the node starts,
without a test; a run of nodes that can neither crash, call nor show
an effect is subtracted in one line.  The local is written back to the
run state before each line that can crash, call, trace or show an
effect, and read back after each call, so a crash has been charged
exactly the steps before it.  Fuel is checked before every call and
branch, after a traced call, and before every effect a run can show
(output, a store to the world, an allocation, the run's end), so an
exhausted run shows nothing past its limit.

All three are deterministic.  A crash (oob, div-zero, abort,
type-error) and running out of steps are statuses, never exceptions.
docs/minilang.md defines the semantics, steps and crash positions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import count

from ..errors import ConfigError, TypeMismatch
from ..inputs import SystemInput
from ..lang.ast import (
    ENTRY, EBinary, ECall, EField, EIndex, ELit, ERecordLit, EUnary, EVar, Program,
    SExpr, SIf, SIndexSet, SLet, SReturn, SWhile,
    input_reading_functions, int_locals, iter_stmts, subexpressions, yields_int,
)
from ..lang.errors import UnknownFunction
from ..lang.goals import BranchGoal, branch_goals
from . import ops
from .ops import Crash, OutOfSteps, fail, spent
from .trace import CarvedTest, CarveStats, Tracer
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, SegmentTable, value_type_name, wrap64,
)

MAX_CALL_DEPTH = 256

DEFAULT_STEP_LIMIT = 5_000_000
DEFAULT_MAX_DUMP_BYTES = 65536


@dataclass(frozen=True)
class RunOptions:
    """A run's limits: its steps, and the bytes of each recorded snapshot."""
    step_limit: int = DEFAULT_STEP_LIMIT
    trace_limit: int = 500_000      # unread; kept for callers that pass it
    max_dump_bytes: int = DEFAULT_MAX_DUMP_BYTES   # per recorded call snapshot

    def __post_init__(self):
        for name in ("step_limit", "max_dump_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def unit(self) -> "RunOptions":
        """Budget for carved-unit executions: a tenth of the system budget."""
        return replace(self, step_limit=max(1, self.step_limit // 10))


@dataclass(frozen=True)
class RunStatus:
    """How a run ended; a crash also says where (`site`, `crash_stmt`)."""
    kind: str  # exit | crash | budget-exhausted
    code: int = 0
    crash_kind: str | None = None
    crash_fn: str | None = None
    crash_stmt: int = -1
    message: str = ""

    def is_crash(self) -> bool:
        return self.kind == "crash"

    @property
    def site(self) -> tuple[str, str] | None:
        """A crash's (crash_kind, crash_fn); None for any other status."""
        return (self.crash_kind, self.crash_fn) if self.kind == "crash" else None


# Built once: runs that exit with a common code share its frozen status.
_EXITS = {code: RunStatus("exit", code) for code in range(-16, 128)}
_EXHAUSTED = RunStatus("budget-exhausted")


@dataclass
class RunResult:
    """How a run ended, what it covered and printed, and its steps and wall time."""
    status: RunStatus
    coverage: frozenset[BranchGoal]
    trace: list[CarvedTest] | None   # the carves a traced run kept
    steps: int
    wall_time_s: float
    output: bytes
    return_value: object = None
    carve_stats: CarveStats | None = None    # of a traced run


# ---------------------------------------------------------------- run state

class _State:
    """One run.  `fuel` is the steps left, `depth` the calls open, and
    `tracer` None unless the run is traced."""

    __slots__ = ("opts", "fuel", "coverage", "globals", "segments", "next_seg",
                 "output", "argv", "stdin", "depth", "tracer")

    def __init__(self, opts: RunOptions, argv, stdin, globals_: dict,
                 segments: SegmentTable):
        self.opts, self.fuel, self.coverage = opts, opts.step_limit, set()
        self.globals, self.segments = globals_, segments
        self.next_seg = None    # found at the run's first allocation
        self.output, self.argv, self.stdin = bytearray(), argv, stdin
        self.depth, self.tracer = 0, None


def _global(st, at, name):
    """The global `name`, read where no local of that name is bound."""
    try:
        return st.globals[name]
    except KeyError:
        fail(at, "type-error", f"unbound name {name!r}")


def _stop(st, at, kind: str, message: str):
    """A check before a branch or a call failed: the run is out of
    steps, else it crashes."""
    if st.fuel < 0:
        spent(st)
    fail(at, kind, message)


def _traced(st, fn, name, *args):
    """Call the compiled function `fn` in a traced run."""
    tracer = st.tracer
    call = tracer.enter(st, name, list(args))
    value = fn(st, *args)
    if st.fuel < 0:
        spent(st)
    tracer.leave(st, call)
    return value


_SLOW = {op: f"S{i}" for i, op in enumerate(ops.BINARY)}
_NAMESPACE = {
    "spent": spent, "fail": fail, "U": object(), "Record": Record, "Ref": Ref,
    "GLOBAL": _global, "STOP": _stop, "TRACED": _traced, "TYPE": value_type_name,
    "INDEX": ops.index, "STORE": ops.store, "WRAP": wrap64,
    "NEG": ops.negate, "NOT": ops.logical_not, "FIELD": ops.field,
    "inf": float("inf"),     # repr() of an overflowing float literal
    "SCALAR": (int, bytes, float), "P0": ("<init>", -1),
    **{_SLOW[op]: f for op, f in ops.BINARY.items()},
    **{f"B_{name}": f for name, f in ops.BUILTINS.items()},
}
# Inline fast paths, by operation and operand count: the text before
# `else` and the ops call, which decides every other case.
_REF_AT = ("type({0}) is Ref and type({1}) is int and (s := st.segments.get({0}.seg))"
           " is not None and 0 <= {1} < len(s) - {0}.off")
_FAST = {
    ("B_len", 1): "len({0}) if type({0}) is bytes else len(s) - {0}.off if type({0}) "
                  "is Ref and (s := st.segments.get({0}.seg)) is not None else ",
    ("B_byte_at", 2): "{0}[{1}] if type({0}) is bytes and type({1}) is int and "
                      "0 <= {1} < len({0}) else ",
    ("B_slice", 3): "{0}[{1}:{2}] if type({0}) is bytes and type({1}) is int and "
                    "type({2}) is int and 0 <= {1} <= {2} <= len({0}) else ",
    ("INDEX", 2): "s[{0}.off + {1}] if " + _REF_AT + " else ",
    ("FIELD", 2): "{0}.fields[{1}] if type({0}) is Record and {1} in {0}.fields else ",
    # A statement, after the fuel is written back: the store runs inline,
    # else the next line calls STORE.
    ("STORE", 3): "if " + _REF_AT + " and f >= 0: s[{0}.off + {1}] = {2}",
}


# ---------------------------------------------------------------- compiler

def compiled(program: Program) -> "_Code":
    """`program`'s code, compiled on its first use."""
    if program.compiled is None:
        program.compiled = _Code(program)
    return program.compiled


class _Code:
    """A program compiled to Python: one function per mini-language
    function, taking the run state and the arguments, and one for the
    global initializers, written as source and each compiled on its own.

    An expression's code leaves its value in an atom: a literal, the
    local of a parameter or let (U until the let has run), or a
    temporary.  While a statement compiles, `at` names its crash
    position, `bound` holds the names certain to be bound (parameters
    and the lets before it in enclosing blocks), `maybe` every name a
    local can hold, and `ints` the atoms certain to hold ints: the
    locals `int_locals` found for the statement (`known`), then its int
    temporaries.

    Fuel lives in the local `f`.  `pending` is the steps due that no
    line has subtracted and `stale` is set while `st.fuel` lags `f`.  A
    line that cannot crash, call or show an effect leaves both alone;
    `settle` subtracts what is pending before a check of `f`, and `sync`
    also writes `f` back before every other line.  A block starts and
    ends settled, so no step is carried into a branch or across a loop's
    back edge.  A while loop adds its enter goal under a flag set before
    the loop.  `input_dependent` holds the input-reading functions:
    never recorded.
    """

    def __init__(self, program: Program):
        self.input_dependent = input_reading_functions(program)
        self.global_names = {g.name for g in program.globals}
        self.targets = {f.name: f"F{i}" for i, f in enumerate(program.functions)}
        self.ns = dict(_NAMESPACE)
        for fn in program.functions:
            self.enter(fn.name, [p for p, _ in fn.params],
                       [s.name for s in iter_stmts(fn.body) if type(s) is SLet])
            self.before = int_locals(fn, self.global_names)
            self.out.append(" st.depth += 1; f = st.fuel")
            self.block(fn.body)
            if not fn.body or type(fn.body[-1]) is not SReturn:
                self.line("st.depth -= 1; return None")
            params = "".join(f", {self.local(p)}" for p, _ in fn.params)
            self.out[:0] = [f"def {self.targets[fn.name]}(st{params}):",
                            *sorted(f" {self.local(n)} = U" for n in self.unset)]
            exec(compile("\n".join(self.out), "<carvelift>", "exec"), self.ns)
        self.enter("<init>", (), ())
        self.out += ["def INIT(st):", " f = st.fuel"]
        for g in program.globals:
            self.pure(f"st.globals[{g.name!r}] = {self.node(g.init, 1)}")
        self.sync()
        exec(compile("\n".join(self.out), "<carvelift>", "exec"), self.ns)
        for name, py in self.targets.items():   # named F1_apply_script in a profile
            self.ns[py].__code__ = self.ns[py].__code__.replace(co_name=f"{py}_{name}")
        self.functions = {name: self.ns[py] for name, py in self.targets.items()}
        self.arity = {f.name: len(f.params) for f in program.functions}
        self.init = self.ns["INIT"]
        del self.ns

    def enter(self, fn_name: str, params, lets) -> None:
        self.fn_name, self.at = fn_name, "P0"
        self.bound, self.maybe = set(params), frozenset(params) | set(lets)
        self.locals, self.unset, self.ints, self.known = {}, set(), set(), ()
        self.out, self.depth, self.fresh, self.free = [], 1, count(), []
        self.pending, self.stale = 0, False

    # ------------------------------------------------------------ emitting

    def pure(self, text: str) -> None:
        """A line that cannot crash, call or show an effect."""
        self.out.append(" " * self.depth + text)

    def settle(self) -> None:
        """Subtract the pending steps from `f`, for a check of it."""
        if self.pending:
            self.pure(f"f -= {self.pending}")
            self.pending, self.stale = 0, True

    def sync(self) -> None:
        """Bring `f` and `st.fuel` up to date."""
        if self.pending:
            self.pure(f"st.fuel = f = f - {self.pending}")
        elif self.stale:
            self.pure("st.fuel = f")
        self.pending, self.stale = 0, False

    def line(self, text: str) -> None:
        """A line that can crash, call or show an effect."""
        self.sync()
        self.pure(text)

    def indented(self, header: str, *emit) -> None:
        """`header`, then the lines `emit` and what calling each lambda
        in it emits, one level deeper."""
        self.settle()
        self.pure(header)
        self.depth += 1
        self.stale = True
        for e in emit:
            self.pure(e) if type(e) is str else e()
        self.settle()
        self.depth -= 1
        self.stale = True

    def local(self, name: str) -> str:
        return self.locals.setdefault(name, f"v{len(self.locals)}")

    def temp(self) -> str:
        t = self.free.pop() if self.free else f"t{next(self.fresh)}"
        self.ints.discard(t)
        return t

    def release(self, *atoms) -> None:
        self.free += [a for a in atoms if a[0] == "t" and a.isidentifier() and a not in self.free]

    def is_int(self, atom: str) -> bool:
        return atom in self.ints or atom.lstrip("-").isdigit()

    def fast(self, op: str, args: list) -> str:
        """`op`'s fast path on `args`, less the guard of an operand known
        to be an int; none on a literal, where Python warns at 1[0]."""
        fast = _FAST.get((op, len(args)))
        if fast is None or args[0][0] not in "tv":
            return ""
        for n, atom in enumerate(args):
            if self.is_int(atom):
                fast = fast.replace(f"type({{{n}}}) is int and ", "")
        return fast.format(*args)

    # ------------------------------------------------------------ statements

    def block(self, body) -> None:
        outer, self.bound = self.bound, set(self.bound)
        for s in body:
            self.stmt(s)
        self.bound = outer

    def start(self, s) -> str:
        """Start statement `s`: the locals known to hold ints, and the
        names of its crash position and branch goals (G<id>0, G<id>1),
        bound in the code's namespace."""
        self.known, n = self.before[s.stmt_id], s.stmt_id
        self.ints = {self.local(name) for name in self.known}
        self.ns[f"P{n}"] = (self.fn_name, n)
        self.ns |= {f"G{n}{i}": g for i, g in enumerate(branch_goals(self.fn_name, s))}
        self.at = f"P{n}"
        return self.at

    def stmt(self, s) -> None:
        at = self.start(s)
        cls = type(s)
        if cls is SIf or cls is SWhile:
            return self.branch(s, at)
        if cls is SIndexSet:
            args = self.operands([s.obj, s.index, s.value], 1)
            self.release(*args)
            slow, fast = f"STORE(st, {at}, {', '.join(args)})", self.fast("STORE", args)
            if not fast:
                return self.line(slow)
            self.line(fast)
            return self.pure("else: " + slow)
        value = (self.node(s.value, 2) if s.value is not None
                 else self.node(ELit(s.pos, None), 1))   # a bare return
        self.release(value)
        if cls is SReturn:
            return self.line(f"st.depth -= 1; return {value}")
        if cls is SExpr:
            return None
        name, v = s.name, self.local(s.name)
        if cls is SLet:
            self.bound.add(name)
        if cls is SLet or name in self.bound or name not in self.global_names:
            return self.pure(f"{v} = {value}")
        self.settle()
        if name in self.maybe:
            self.unset.add(name)
            self.pure(f"if {v} is not U: {v} = {value}")
        self.pure(f"{'el' if name in self.maybe else ''}if f < 0: spent(st)")
        self.pure(f"else: st.globals[{name!r}] = {value}")

    def branch(self, s, at) -> None:
        """An if or a while: its test, the goals it covers, its bodies.
        An else-if chain compiles flat: each link after the first runs
        under `if e<id>:`, cleared when an earlier link is taken."""
        flag, yes, no = f"e{s.stmt_id}", f"G{s.stmt_id}0", f"G{s.stmt_id}1"
        if type(s) is SWhile:
            self.pure(f"{flag} = 1")
            self.pending += 1
            return self.indented(
                "while True:",
                lambda: self.pure(f"if not {self.test(s.cond, at)}: "
                                  f"st.coverage.add({no}); break"),
                f"if {flag}: {flag} = 0; st.coverage.add({yes})", lambda: self.block(s.body))
        chain = [s]
        while (b := chain[-1].else_body) and len(b) == 1 and type(b[0]) is SIf:
            chain.append(b[0])
        self.link(s, flag if len(chain) > 1 else None)
        for n, s in enumerate(chain[1:], 2):
            self.indented(f"if {flag}:", lambda: self.link(s, flag if n < len(chain) else None))

    def link(self, s, flag) -> None:
        """One if of a chain; `flag` is set when its else continues the
        chain, or None when the else holds its own body."""
        at, yes, no = self.start(s), f"G{s.stmt_id}0", f"G{s.stmt_id}1"
        self.indented(f"if {self.test(s.cond, at)}:", f"st.coverage.add({yes})",
                      lambda: self.block(s.then_body), *[f"{flag} = 0"] * bool(flag))
        self.indented("else:", f"st.coverage.add({no})",
                      f"{flag} = 1" if flag else lambda: self.block(s.else_body or []))

    def test(self, cond, at) -> str:
        c = self.node(cond, 2, fold=True)
        self.release(c)
        if self.is_int(c):
            self.settle()
            self.pure("if f < 0: spent(st)")
        else:
            self.line(f"if f < 0 or type({c}) is not int: STOP(st, {at}, "
                      f"'type-error', 'condition must be int, got ' + TYPE({c}))")
        return c

    # ------------------------------------------------------------ expressions

    def leaf(self, e):
        """The atom of `e` when nothing can observe reading it (a
        constant, a local bound here), else None."""
        cls = type(e)
        if cls is ELit:
            return repr(e.value)
        if cls is EVar and e.name in self.bound:
            return self.local(e.name)
        return None

    def operands(self, exprs, k) -> list:
        """Atoms of operands evaluated in order, after their parent's
        step `k`."""
        self.pending += k
        return [self.node(e, 1) for e in exprs]

    def node(self, e, k, fold=False) -> str:
        """The atom of `e`, after its own step and the `k - 1` steps due
        just before it; with `fold`, an int comparison may come instead,
        for a test to read directly."""
        atom = self.leaf(e)
        if atom is not None:
            self.pending += k
            return atom
        atom = self.binary(e, k, fold) if type(e) is EBinary else self.compound(e, k)
        if yields_int(e, self.known):
            self.ints.add(atom)
        return atom

    def compound(self, e, k) -> str:
        at, cls = self.at, type(e)
        if cls is EUnary and type(e.operand) is ELit and type(e.operand.value) is int:
            self.pending += k + 1
            v = e.operand.value
            return str(wrap64(-v) if e.op == "-" else 0 if v != 0 else 1)
        if cls is EVar:
            self.pending += k
            read = (f"st.globals[{e.name!r}]" if e.name in self.global_names
                    else f"GLOBAL(st, {at}, {e.name!r})")
            emit = self.pure if e.name in self.global_names else self.line
            if e.name in self.maybe:
                v = self.local(e.name)
                self.unset.add(e.name)
                read = f"{v} if {v} is not U else {read}"
            t = self.temp()
            emit(f"{t} = {read}")
            return t
        if cls is ECall:
            op = self.targets.get(e.name, f"B_{e.name}")
        elif cls is EUnary:
            op = "NEG" if e.op == "-" else "NOT"
        else:   # "" for a record or array literal
            op = {EIndex: "INDEX", EField: "FIELD"}.get(cls, "")
        args = self.operands(subexpressions(e), k) + ([repr(e.name)] if cls is EField else [])
        self.release(*args)
        t, a = self.temp(), ", ".join(args)
        if cls is ECall and e.name in self.targets:
            self.line(f"if f < 0 or st.depth >= {MAX_CALL_DEPTH}: "
                      f"STOP(st, {at}, 'abort', 'call stack overflow')")
            self.pure(f"{t} = {op}(st, {a}) if st.tracer is None "
                      f"else TRACED(st, {op}, {e.name!r}, {a}); f = st.fuel")
            return t
        if op == "NOT" and self.is_int(a):
            self.pure(f"{t} = 0 if {a} else 1")
        elif op == "NOT":
            self.line(f"{t} = (0 if {a} else 1) if type({a}) is int else NOT(st, {at}, {a})")
        elif op:
            self.line(f"{t} = {self.fast(op, args)}{op}(st, {at}, {a})")
        elif cls is ERecordLit:
            fields = ", ".join(f"{n!r}: {x}" for (n, _), x in zip(e.fields, args))
            self.pure(f"{t} = Record({e.name!r}, {{{fields}}})")
        else:   # an array literal
            self.pure(f"{t} = ({a}{',' if len(args) == 1 else ''})")
        return t

    def binary(self, e, k, fold) -> str:
        op, at = e.op, self.at
        if op == "&&" or op == "||":   # the right operand only sometimes
            (a,) = self.operands([e.left], k)
            t = self.temp()
            fails = f"fail({at}, 'type-error', '{op} needs int operands')"
            if not self.is_int(a):
                self.line(f"if type({a}) is not int: {fails}")
            self.release(a)
            self.pure(f"{t} = {0 if op == '&&' else 1}")

            def right():
                b = self.node(e.right, 1)
                if not self.is_int(b):
                    self.line(f"if type({b}) is not int: {fails}")
                self.release(b)
                self.pure(f"{t} = 1 if {b} else 0")
            self.indented(f"if {a}:" if op == "&&" else f"if not {a}:", right)
            return t
        a, b = self.operands([e.left, e.right], k)
        # The fast path takes two ints, or two bytes for == and != with a
        # bytes literal; there is none beside a float or null literal.
        lits = {x[0] for x in (a, b) if x[0] not in "tv" and not self.is_int(x)}
        kind = "int" if not lits else None
        if lits == {"b"} and op in ("==", "!=") and not any(map(self.is_int, (a, b))):
            kind = "bytes"
        unknown = [x for x in (a, b) if x[0] in "tv" and not self.is_int(x)]
        guard = " and ".join(f"type({x}) is {kind}" for x in unknown)
        if len(unknown) == 2 and op in ("==", "!="):    # two scalars of one type
            guard = f"type({a}) is type({b}) and type({a}) in SCALAR"
        self.release(a, b)
        if fold and kind == "int" and not guard and op not in "+-*/%":
            return f"{a} {op} {b}"
        t, slow = self.temp(), f"{_SLOW[op]}({at}, {a}, {b})"
        if op in "+-*":
            fast = f"r if {INT64_MIN} <= (r := {a} {op} {b}) <= {INT64_MAX} else WRAP(r)"
        elif op not in "/%":    # a comparison: 0 or 1
            fast = f"1 if {a} {op} {b} else 0"
        if op in "/%" or kind is None:
            self.line(f"{t} = {slow}")
        elif guard:
            self.line(f"{t} = ({fast}) if {guard} else {slow}")
        else:
            self.pure(f"{t} = {fast}")
        return t


# ---------------------------------------------------------------- entry points

def _finish(st: _State, code: _Code, name: str, args: list, init: bool,
            started: float) -> RunResult:
    """Run `name`, after the global initializers when `init` is set,
    folding crashes and budget exhaustion into a status."""
    value, fn = None, code.functions[name]
    try:
        if init:
            code.init(st)
        if st.fuel < 0:
            spent(st)
        value = fn(st, *args) if st.tracer is None else _traced(st, fn, name, *args)
        exit_code = value if type(value) is int else 0
        status = _EXITS.get(exit_code) or RunStatus("exit", exit_code)
    except Crash as c:
        kind, message, fn, stmt = c.args
        status = RunStatus("crash", 0, kind, fn, stmt, message)
    except OutOfSteps:
        pass
    if st.fuel < 0:   # the budget ran out before that exit or crash
        st.fuel, value, status = -1, None, _EXHAUSTED
    trace = None if st.tracer is None else st.tracer.finish(st)
    return RunResult(status, frozenset(st.coverage), trace,
                     st.opts.step_limit - st.fuel, time.perf_counter() - started,
                     bytes(st.output), value, st.tracer and st.tracer.stats)


def _run(program: Program, system_input: SystemInput, opts: RunOptions,
         traced: bool) -> RunResult:
    started = time.perf_counter()
    code = compiled(program)
    st = _State(opts, tuple(system_input.argv), system_input.stdin, {}, {})
    if traced:
        st.tracer = Tracer(code.input_dependent, st.coverage)
    return _finish(st, code, ENTRY, [], True, started)


def run_system(program: Program, system_input: SystemInput,
               opts: RunOptions = RunOptions()) -> RunResult:
    """Execute main against a system input; coverage only, no trace."""
    return _run(program, system_input, opts, traced=False)


def run_with_tracing(program: Program, system_input: SystemInput,
                     opts: RunOptions = RunOptions()) -> RunResult:
    """Execute main and record a carve of each call carving keeps (see
    trace.py), with the counts of those it does not keep in `carve_stats`.

    Instrumentation is transparent: status, coverage, output and steps
    always equal the untraced run's.
    """
    return _run(program, system_input, opts, traced=True)


def call_function(program: Program, fn_name: str, args: list,
                  world: tuple[dict, SegmentTable],
                  opts: RunOptions = RunOptions()) -> RunResult:
    """Execute one function against a prepared world.

    `world` is (globals map, segment table); the callee mutates it in
    place, so the caller owns isolation (carved contexts hand out deep
    copies).  A ref into a segment the world lacks is a type-error crash
    ("dangling reference") where the callee dereferences it, as in any
    run; a carve's context never holds one, since truncation severs refs
    out of the slice to null.  Inside the call the outside world is
    empty: arg_count() is 0 and read_all_input() returns b"".

    It raises UnknownFunction for a function the program lacks, and
    TypeMismatch for the wrong arity, an int argument outside 64 bits or
    a world without a global.  Otherwise arguments meet dynamic checks only.
    """
    code = compiled(program)
    arity = code.arity.get(fn_name)
    if arity is None:
        raise UnknownFunction(f"no function named {fn_name!r}")
    if len(args) != arity:
        raise TypeMismatch(f"{fn_name!r} takes {arity} arguments, got {len(args)}")
    for a in args:
        if type(a) is int and not INT64_MIN <= a <= INT64_MAX:
            raise TypeMismatch(f"{fn_name!r} got an int outside the signed 64-bit range")
    started = time.perf_counter()
    if not world[0].keys() >= code.global_names:
        missing = next(g.name for g in program.globals if g.name not in world[0])
        raise TypeMismatch(f"world is missing global {missing!r}")
    return _finish(_State(opts, (), b"", *world), code, fn_name, args, False, started)
