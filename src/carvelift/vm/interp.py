"""Deterministic VM: each function is compiled once to Python source.

Three entry points:

    run_system        execute main against a SystemInput, coverage only
    run_with_tracing  same, but record each kept call as a carve (trace.py)
    call_function     execute one function against a carved world

A Program is compiled on its first run, and the code is kept on the
Program, so it lives exactly as long as the Program does.  `_Code`
writes the source of one Python function per mini-language function and
builds them with one compile(), as `dataclasses` builds its methods:
parameters and lets become Python locals, branch goals, crash positions
and builtins are bound into the code, and ops.py keeps the slow paths
and the builtins.  A call is one Python call.  Inline fast paths cover
int + - * and comparisons, == and != on two ints, floats or byte
strings, len of bytes or a ref, byte_at and slice(b, i, j) of bytes,
indexing and storing through a ref, and a record's field; each takes
only operands whose result it reads directly and calls ops.py for the
rest, so ops.py alone defines every result, crash and message.  Tracing
is run state, not code: each call site takes the traced path when its
run has a tracer, and branches add to the run state's coverage set,
which the tracer points at the innermost recorded call's set.

A unit execution should cost its steps, since a carve is replayed
thousands of times.  So what a Program fixes is made once, with its
code: each function's Python function, its argument types and the
global names.  Per execution, `call_function` compares the argument
types and global names with those, and builds only the run state and
the `RunResult`; runs that exit with the same code share one status.

Steps are exact.  The code subtracts each node's steps from the run's
fuel as the node starts, without a test, and subtracts two nodes' steps
in one line only where no other line lies between them, so a crash has
been charged exactly the steps before it.  Fuel is checked before every
call and branch, after a traced call, and before every effect a run can
show (output, a store to the world, an allocation, the run's end), so
an exhausted run shows nothing past its limit.

All three are deterministic: the language has no clocks, no randomness,
and no addresses observable to the subject, so identical inputs yield
identical results.  Subject failures (crash kinds oob, div-zero, abort,
type-error) and step-budget exhaustion are statuses, never exceptions.

Semantics notes that matter for reproducibility:

  * int is two's-complement 64-bit; + - * wrap, / and % truncate toward
    zero, and division by zero (int or float) is a div-zero crash.
  * conditions must be int; nonzero is true.
  * == and != compare structurally; null compares equal only to null.
    Ordering is defined for int/int and float/float only.
  * every statement, loop test and expression node costs one step.  A
    run that exceeds the step limit ends budget-exhausted at limit + 1
    steps, with nothing done past the step that exceeded it.
  * a crash reports the statement lexically enclosing the failing node,
    as (function, statement id), or ("<init>", -1) in a global
    initializer.
  * the call stack is capped at 256 frames; exceeding it is an abort
    crash at the caller, keeping the host stack bounded.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Optional

from ..errors import ToolError
from ..inputs import SystemInput
from ..lang.ast import (
    ENTRY, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt, ENull,
    ERecordLit, EUnary, EVar, Program, SExpr, SIf, SIndexSet, SLet, SReturn,
    SWhile, TArray, TBytes, TFloat, TInt, TRecord, TRef,
    input_reading_functions, iter_stmts, subexpressions,
)
from ..lang.errors import UnknownFunction
from ..lang.goals import OUTCOMES_IF, OUTCOMES_WHILE, BranchGoal
from . import ops
from .ops import Crash, OutOfSteps, fail, spent
from .trace import CarvedTest, CarveStats, Tracer, encode_carve
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, SegmentTable, encode_value,
    value_type_name, wrap64,
)

MAX_CALL_DEPTH = 256

DEFAULT_STEP_LIMIT = 5_000_000
DEFAULT_MAX_DUMP_BYTES = 65536

CRASH_KINDS = ("oob", "div-zero", "abort", "type-error")


class TypeMismatch(ToolError):
    """Arguments handed to call_function do not fit the declared signature."""


@dataclass(frozen=True)
class RunOptions:
    step_limit: int = DEFAULT_STEP_LIMIT
    trace_limit: int = 500_000      # unread; kept for callers that pass it
    max_dump_bytes: int = DEFAULT_MAX_DUMP_BYTES   # per recorded call snapshot
    per_fn_cap: int = 8     # recorded calls kept per function and run

    def unit(self) -> "RunOptions":
        """Budget for carved-unit executions: a tenth of the system budget."""
        return replace(self, step_limit=max(1, self.step_limit // 10))


@dataclass(frozen=True)
class RunStatus:
    kind: str  # exit | crash | budget-exhausted
    code: int = 0
    crash_kind: Optional[str] = None
    crash_fn: Optional[str] = None
    crash_stmt: int = -1
    message: str = ""

    def is_crash(self) -> bool:
        return self.kind == "crash"


@lru_cache(maxsize=1024)
def _exit_status(code: int) -> RunStatus:
    """A frozen status, so runs that exit alike share one."""
    return RunStatus("exit", code)


_EXHAUSTED = RunStatus("budget-exhausted")


@dataclass
class RunResult:
    status: RunStatus
    coverage: frozenset[BranchGoal]
    trace: Optional[list[CarvedTest]]   # the carves a traced run kept
    steps: int
    wall_time_s: float
    output: bytes
    return_value: object = None
    carve_stats: Optional[CarveStats] = None    # of a traced run


def serialize_run_result(result: RunResult) -> dict:
    """Canonical encoding for determinism checks; wall time is excluded
    because it is the one field the machine, not the program, decides."""
    return {
        "status": asdict(result.status),
        "coverage": sorted(str(g) for g in result.coverage),
        "steps": result.steps,
        "output": result.output.decode("latin-1"),
        "return_value": encode_value(result.return_value),
        "trace": None if result.trace is None else {
            "calls": [encode_carve(c) for c in result.trace],
            "stats": asdict(result.carve_stats)},
    }


# ---------------------------------------------------------------- run state

class _State:
    """One run.  `fuel` is the steps left, `depth` the calls open, and
    `tracer` None unless the run is traced."""

    __slots__ = ("opts", "fuel", "coverage", "globals", "segments", "next_seg",
                 "output", "argv", "stdin", "depth", "tracer")

    def __init__(self, opts: RunOptions, argv, stdin, globals_: dict,
                 segments: SegmentTable):
        self.opts = opts
        self.fuel = opts.step_limit
        self.coverage = set()
        self.globals = globals_
        self.segments = segments
        self.next_seg = max(segments) + 1 if segments else 0
        self.output = bytearray()
        self.argv = argv
        self.stdin = stdin
        self.depth = 0
        self.tracer = None


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
    "SCALAR": (int, bytes, float),
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
    # A statement: the store runs inline, else the next line calls STORE.
    ("STORE", 3): "if " + _REF_AT + " and st.fuel >= 0: s[{0}.off + {1}] = {2}",
}


# ---------------------------------------------------------------- compiler

def _code(program: Program) -> "_Code":
    """`program`'s code, compiled on its first run."""
    if program.compiled is None:
        program.compiled = _Code(program)
    return program.compiled


class _Code:
    """A program compiled to Python: one function per mini-language
    function, taking the run state and the arguments, and one for the
    global initializers, written as source and built with compile().

    An expression's code leaves its value in an atom: a literal, the
    local of a parameter or let (U until the let has run), or a
    temporary.  While a statement compiles, `at` is its crash position,
    `bound` the names certain to be bound (parameters and the lets
    before it in enclosing blocks), `maybe` every name a local can hold,
    `ints` the atoms certain to hold ints, and `pending` the steps due
    that no line has subtracted yet; the next line subtracts them first.
    `input_dependent` holds the input-reading functions: never recorded.
    """

    def __init__(self, program: Program):
        self.input_dependent = input_reading_functions(program)
        self.global_names = {g.name for g in program.globals}
        self.targets = {f.name: f"F{i}" for i, f in enumerate(program.functions)}
        self.ns, source = dict(_NAMESPACE), []
        for fn in program.functions:
            self.enter(fn.name, [p for p, _ in fn.params],
                       [s.name for s in iter_stmts(fn.body) if isinstance(s, SLet)])
            self.line("st.depth += 1")
            self.block(fn.body)
            if not fn.body or type(fn.body[-1]) is not SReturn:
                self.line("st.depth -= 1")
            params = "".join(f", {self.local(p)}" for p, _ in fn.params)
            source += [f"def {self.targets[fn.name]}(st{params}):",
                       *sorted(f" {self.local(n)} = U" for n in self.unset), *self.out]
        self.enter("<init>", (), ())
        for g in program.globals:
            self.line(f"st.globals[{g.name!r}] = {self.expr(g.init)}")
        source += ["def INIT(st):", " pass", *self.out]
        exec(compile("\n".join(source), "<carvelift>", "exec"), self.ns)
        self.functions = {name: self.ns[py] for name, py in self.targets.items()}
        # Each function's argument types, when type() alone decides them.
        self.kinds = {f.name: tuple(_KINDS.get(type(t)) for _, t in f.params)
                      for f in program.functions}
        self.init = self.ns["INIT"]
        del self.ns

    def enter(self, fn_name: str, params, lets) -> None:
        self.fn_name, self.at = fn_name, repr((fn_name, -1))
        self.bound, self.maybe = set(params), frozenset(params) | set(lets)
        self.locals, self.unset, self.ints = {}, set(), set()
        self.out, self.depth, self.pending, self.temps, self.free = [], 1, 0, 0, []

    def run(self, st: _State, name: str, args: list, init: bool):
        """Call `name` as the outermost call, after the global
        initializers when `init` is set."""
        if init:
            self.init(st)
        if st.fuel < 0:
            spent(st)
        if st.tracer is None:
            return self.functions[name](st, *args)
        return _traced(st, self.functions[name], name, *args)

    # ------------------------------------------------------------ emitting

    def flush(self) -> None:
        if self.pending:
            self.out.append(f"{' ' * self.depth}st.fuel -= {self.pending}")
            self.pending = 0

    def line(self, text: str) -> None:
        self.flush()
        self.out.append(" " * self.depth + text)

    def indented(self, header: str, *emit) -> None:
        """`header`, then the lines `emit` and what calling each lambda
        in it emits, one level deeper."""
        self.line(header)
        self.depth += 1
        for e in emit:
            self.line(e) if type(e) is str else e()
        self.flush()
        self.depth -= 1

    def local(self, name: str) -> str:
        return self.locals.setdefault(name, f"v{len(self.locals)}")

    def temp(self) -> str:
        if not self.free:
            self.free.append(f"t{self.temps}")
            self.temps += 1
        t = self.free.pop()
        self.ints.discard(t)
        return t

    def release(self, *atoms) -> None:
        self.free += [a for a in atoms if a[0] == "t" and a not in self.free]

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

    def stmt(self, s) -> None:
        self.at = at = repr((self.fn_name, s.stmt_id))
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
            return self.line("else: " + slow)
        value = (self.expr(s.value, 1) if s.value is not None
                 else self.node(ENull(s.pos), 1))   # a bare return
        self.release(value)
        if cls is SReturn:
            return self.line(f"st.depth -= 1; return {value}")
        if cls is SExpr:
            return None
        name = s.name
        if cls is SLet:
            self.bound.add(name)
        if cls is SLet or name in self.bound or name not in self.global_names:
            return self.line(f"{self.local(name)} = {value}")
        if name in self.maybe:
            v = self.local(name)
            self.unset.add(name)
            self.line(f"if {v} is not U: {v} = {value}")
        self.line(f"{'el' if name in self.maybe else ''}if st.fuel < 0: spent(st)")
        self.line(f"else: st.globals[{name!r}] = {value}")

    def branch(self, s, at) -> None:
        """An if or a while: its test, the goals it covers, its bodies.
        An else-if chain compiles flat: each link after the first runs
        under `if e<id>:`, cleared when an earlier link is taken."""
        if type(s) is SWhile:
            yes, no = self.goals(s)
            self.pending += 1
            return self.indented(
                "while True:",
                lambda: self.line(f"if not {self.test(s.cond, at)}: st.coverage.add({no}); break"),
                f"st.coverage.add({yes})", lambda: self.block(s.body))
        chain = [s]
        while (b := chain[-1].else_body) and len(b) == 1 and type(b[0]) is SIf:
            chain.append(b[0])
        flag = f"e{s.stmt_id}"
        self.link(s, flag if len(chain) > 1 else None)
        for n, s in enumerate(chain[1:], 2):
            self.indented(f"if {flag}:", lambda: self.link(s, flag if n < len(chain) else None))

    def link(self, s, flag) -> None:
        """One if of a chain; `flag` is set when its else continues the
        chain, or None when the else holds its own body."""
        self.at = at = repr((self.fn_name, s.stmt_id))
        yes, no = self.goals(s)
        self.indented(f"if {self.test(s.cond, at)}:", f"st.coverage.add({yes})",
                      lambda: self.block(s.then_body), *[f"{flag} = 0"] * bool(flag))
        self.indented("else:", f"st.coverage.add({no})",
                      f"{flag} = 1" if flag else lambda: self.block(s.else_body or []))

    def goals(self, s) -> list:
        """The names of `s`'s two branch goals, bound in the code's namespace."""
        self.ns |= {f"G{s.stmt_id}{i}": BranchGoal(self.fn_name, s.stmt_id, o) for i, o
                    in enumerate(OUTCOMES_WHILE if type(s) is SWhile else OUTCOMES_IF)}
        return [f"G{s.stmt_id}0", f"G{s.stmt_id}1"]

    def test(self, cond, at) -> str:
        c = self.expr(cond, 1)
        self.release(c)
        self.line("if st.fuel < 0: spent(st)" if self.is_int(c) else
                  f"if st.fuel < 0 or type({c}) is not int: STOP(st, {at}, "
                  f"'type-error', 'condition must be int, got ' + TYPE({c}))")
        return c

    # ------------------------------------------------------------ expressions

    def leaf(self, e):
        """The atom of `e` when nothing can observe reading it (a
        constant, a local bound here), else None."""
        cls = type(e)
        if cls is EInt or cls is EFloat or cls is EBytes:
            return repr(e.value)
        if cls is ENull:
            return "None"
        if cls is EVar and e.name in self.bound:
            return self.local(e.name)
        return None

    def operands(self, exprs, k) -> list:
        """Atoms of operands evaluated in order, after their parent's
        step `k` and one step for each leaf before the first other
        operand; those leaves subtract nothing themselves."""
        n = 0
        while n < len(exprs) and self.leaf(exprs[n]) is not None:
            n += 1
        self.pending += k + n
        return [self.leaf(e) for e in exprs[:n]] + [self.expr(e) for e in exprs[n:]]

    def expr(self, e, extra=0) -> str:
        """The atom of `e`, subtracting its own step and the `extra`
        steps due just before it."""
        return self.node(e, extra + 1)

    def node(self, e, k) -> str:
        at, cls = self.at, type(e)
        atom = self.leaf(e)
        if atom is not None:
            self.pending += k
            return atom
        if cls is EBinary:
            return self.binary(e, k, at)
        if cls is EUnary and type(e.operand) is EInt:   # a constant
            self.pending += k + 1
            v = e.operand.value
            return str(wrap64(-v) if e.op == "-" else 0 if v != 0 else 1)
        if cls is EVar:
            self.pending += k
            read = (f"st.globals[{e.name!r}]" if e.name in self.global_names
                    else f"GLOBAL(st, {at}, {e.name!r})")
            if e.name in self.maybe:
                v = self.local(e.name)
                self.unset.add(e.name)
                read = f"{v} if {v} is not U else {read}"
            t = self.temp()
            self.line(f"{t} = {read}")
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
            self.line(f"if st.fuel < 0 or st.depth >= {MAX_CALL_DEPTH}: "
                      f"STOP(st, {at}, 'abort', 'call stack overflow')")
            self.line(f"{t} = {op}(st, {a}) if st.tracer is None "
                      f"else TRACED(st, {op}, {e.name!r}, {a})")
        elif op == "NOT":
            self.ints.add(t)
            self.line(f"{t} = (0 if {a} else 1) if type({a}) is int else NOT(st, {at}, {a})")
        elif op:
            self.line(f"{t} = {self.fast(op, args)}{op}(st, {at}, {a})")
        elif cls is ERecordLit:
            fields = ", ".join(f"{n!r}: {x}" for (n, _), x in zip(e.fields, args))
            self.line(f"{t} = Record({e.name!r}, {{{fields}}})")
        else:   # an array literal
            self.line(f"{t} = ({a}{',' if len(args) == 1 else ''})")
        return t

    def binary(self, e, k, at) -> str:
        op = e.op
        if op == "&&" or op == "||":   # the right operand only sometimes
            (a,) = self.operands([e.left], k)
            t = self.temp()
            fails = f"fail({at}, 'type-error', '{op} needs int operands')"
            if not self.is_int(a):
                self.line(f"if type({a}) is not int: {fails}")
            self.release(a)
            self.line(f"{t} = {0 if op == '&&' else 1}")

            def right():
                b = self.expr(e.right)
                if not self.is_int(b):
                    self.line(f"if type({b}) is not int: {fails}")
                self.release(b)
                self.line(f"{t} = 1 if {b} else 0")
            self.indented(f"if {a}:" if op == "&&" else f"if not {a}:", right)
            self.ints.add(t)
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
        t, slow = self.temp(), f"{_SLOW[op]}({at}, {a}, {b})"
        if op in "+-*":
            fast = f"r if {INT64_MIN} <= (r := {a} {op} {b}) <= {INT64_MAX} else WRAP(r)"
        elif op not in "/%":    # a comparison: 0 or 1
            fast = f"1 if {a} {op} {b} else 0"
            self.ints.add(t)
        self.line(f"{t} = {slow}" if op in "/%" or kind is None else
                  f"{t} = ({fast}) if {guard} else {slow}" if guard else f"{t} = {fast}")
        return t


# ---------------------------------------------------------------- entry points

def _finish(st: _State, code: _Code, name: str, args: list, init: bool,
            started: float) -> RunResult:
    """Run `name`, folding crashes and budget exhaustion into a status."""
    value = None
    try:
        value = code.run(st, name, args, init)
        status = _exit_status(value if type(value) is int else 0)
    except Crash as c:
        kind, message, fn, stmt = c.args
        status = RunStatus("crash", 0, kind, fn, stmt, message)
    except OutOfSteps:
        pass
    if st.fuel < 0:   # the budget ran out before that exit or crash
        st.fuel, value, status = -1, None, _EXHAUSTED
    tracer = st.tracer
    trace = None if tracer is None else tracer.finish(st)
    return RunResult(status, frozenset(st.coverage), trace,
                     st.opts.step_limit - st.fuel, time.perf_counter() - started,
                     bytes(st.output), value, tracer and tracer.stats)


def _run(program: Program, system_input: SystemInput, opts: RunOptions,
         traced: bool) -> RunResult:
    started = time.perf_counter()
    code = _code(program)
    st = _State(opts, tuple(system_input.argv), system_input.stdin, {}, {})
    if traced:
        st.tracer = Tracer(opts.per_fn_cap, code.input_dependent, st.coverage)
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


_KINDS = {TInt: int, TFloat: float, TBytes: bytes, TRef: Ref, TArray: tuple}


def _arg_fits(value, declared) -> bool:
    if isinstance(declared, TInt):
        return type(value) is int
    if isinstance(declared, TFloat):
        return type(value) is float
    if isinstance(declared, TBytes):
        return isinstance(value, bytes)
    if isinstance(declared, TRef):
        return value is None or isinstance(value, Ref)
    if isinstance(declared, TArray):
        return isinstance(value, tuple)
    if isinstance(declared, TRecord):
        return isinstance(value, Record) and value.rtype == declared.name
    return False


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
    empty: arg_count() is 0 and read_all_input() returns the empty
    string.
    """
    code = _code(program)
    if tuple(map(type, args)) != code.kinds.get(fn_name):
        _check_args(program, fn_name, args)
    started = time.perf_counter()
    globals_, segments = world
    if not globals_.keys() >= code.global_names:
        missing = next(g.name for g in program.globals if g.name not in globals_)
        raise TypeMismatch(f"world is missing global {missing!r}")
    st = _State(opts, (), b"", globals_, segments)
    return _finish(st, code, fn_name, args, False, started)


def _check_args(program: Program, fn_name: str, args: list) -> None:
    """Raise unless `fn_name` names a function that takes `args`."""
    fn = program.function(fn_name)
    if fn is None:
        raise UnknownFunction(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise TypeMismatch(
            f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    for value, (pname, declared) in zip(args, fn.params):
        if not _arg_fits(value, declared):
            raise TypeMismatch(f"argument {pname!r} of {fn_name!r} expects {declared}, "
                               f"got {value_type_name(value)}")
