"""Deterministic VM: each function is compiled once into Python closures.

Three entry points:

    run_system        execute main against a SystemInput, coverage only
    run_with_tracing  same, but record each kept call as a carve (trace.py)
    call_function     execute one function against a carved world

A Program is compiled on its first run, and the code is kept on the
Program, so it lives exactly as long as the Program does.  Every
statement and expression becomes a closure `f(state, frame)` (Feeley and
Lapalme, "Using Closures for Code Generation", 1987).  Operators, call
targets, branch goals and crash positions are resolved while compiling,
so a run does no per-node dispatch; the operations themselves are in
ops.py.  Tracing is run state, not code: every user call checks whether
its run has a tracer, and branches add to the run state's coverage set,
which the tracer points at the innermost recorded call's set.

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

import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..errors import ToolError
from ..inputs import SystemInput
from ..lang.ast import (
    ENTRY, EArrayLit, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt,
    ENull, ERecordLit, EUnary, EVar, FunctionDef, Program, SExpr, SIf,
    SIndexSet, SLet, SReturn, SWhile, TArray, TBytes, TFloat, TInt, TRecord,
    TRef, input_reading_functions, iter_stmts,
)
from ..lang.errors import UnknownFunction
from ..lang.goals import OUTCOMES_IF, OUTCOMES_WHILE, BranchGoal
from . import ops
from .ops import Crash, OutOfSteps, fail, spent
from .trace import CarvedTest, CarveStats, Tracer, encode_carve
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, SegmentTable, encode_value,
    value_type_name,
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
    """One run.  `fuel` is the steps left.  Nodes subtract their steps
    without a test.  Every call and loop test checks that fuel is not
    negative, which bounds the run, and so does whatever could show an
    effect (a branch, a call's return, output, a store to the world, the
    run's end), so an exhausted run shows nothing past its limit.
    `tracer` is None unless the run is traced."""

    __slots__ = ("opts", "fuel", "coverage", "globals", "segments", "next_seg",
                 "output", "argv", "stdin", "depth", "tracer")

    def __init__(self, opts: RunOptions, argv=(), stdin=b"",
                 globals_: dict | None = None,
                 segments: SegmentTable | None = None):
        self.opts = opts
        self.fuel = opts.step_limit
        self.coverage = set()
        self.globals = {} if globals_ is None else globals_
        self.segments = {} if segments is None else segments
        self.next_seg = max(self.segments, default=-1) + 1
        self.output = bytearray()
        self.argv = argv
        self.stdin = stdin
        self.depth = 0
        self.tracer = None


def _call(st: _State, at, target: "_Target", args: list):
    """Enter a user function from a call at `at`."""
    if st.fuel < 0:
        spent(st)
    if st.depth >= MAX_CALL_DEPTH:
        fail(at, "abort", "call stack overflow")
    tracer = st.tracer
    if tracer is not None:
        call = tracer.enter(st, target.name, args)
    st.depth += 1
    flow = target.body(st, dict(zip(target.params, args)))
    st.depth -= 1
    if tracer is not None:
        if st.fuel < 0:
            spent(st)
        tracer.leave(st, call)
    return flow[0] if flow is not None else None


# ---------------------------------------------------------------- compiler

class _Target:
    """A user function; `body` is set once all are compiled, so calls can
    recurse."""

    __slots__ = ("name", "params", "body")

    def __init__(self, fn: FunctionDef):
        self.name = fn.name
        self.params = tuple(p for p, _ in fn.params)


def _code(program: Program) -> "_Code":
    """`program`'s code, compiled on its first run."""
    if program.compiled is None:
        program.compiled = _Code(program)
    return program.compiled


class _Code:
    """A program compiled into closures `f(st, fr)` over the run state and
    the frame.  A statement's closure returns None, or (value,) once the
    function returns.

    While a statement compiles, `at` is its crash position, `bound` the
    names certain to be in the frame (parameters and the lets before it
    in enclosing blocks) and `maybe` every name the frame can hold.
    `frames` bounds the host stack a run can use: MAX_CALL_DEPTH calls at
    the deepest nesting, at most two Python frames per closure.
    `input_dependent` holds the input-reading functions: never recorded.
    """

    def __init__(self, program: Program):
        self.input_dependent = input_reading_functions(program)
        self.global_names = {g.name for g in program.globals}
        self.targets = {f.name: _Target(f) for f in program.functions}
        self.nesting = self.deepest = 0
        for fn in program.functions:
            self.enter(fn.name, [p for p, _ in fn.params],
                       [s.name for s in iter_stmts(fn.body) if isinstance(s, SLet)])
            self.targets[fn.name].body = self.block(fn.body)
        self.enter("<init>", (), ())
        self.inits = [(g.name, self.expr(g.init)) for g in program.globals]
        self.frames = 2 * MAX_CALL_DEPTH * (self.deepest + 4)

    def enter(self, fn_name: str, params, lets) -> None:
        self.fn_name, self.at = fn_name, (fn_name, -1)
        self.bound, self.maybe = set(params), frozenset(params) | set(lets)

    def run(self, st: _State, name: str, args: list, init: bool):
        """Call `name` as the outermost call, after the global
        initializers when `init` is set."""
        if init:
            for gname, value in self.inits:
                st.globals[gname] = value(st, {})
        return _call(st, None, self.targets[name], args)   # at depth 0

    # ------------------------------------------------------------ statements

    def block(self, body):
        outer, self.bound = self.bound, set(self.bound)
        self.nesting += 2       # the block's closure, then each statement's
        self.deepest = max(self.deepest, self.nesting)
        stmts = tuple(self.stmt(s) for s in body)
        self.nesting -= 2
        self.bound = outer

        def block(st, fr):
            for s in stmts:
                flow = s(st, fr)
                if flow is not None:
                    return flow
        return block

    def stmt(self, s):
        self.at = at = (self.fn_name, s.stmt_id)
        cls = type(s)
        if cls is SIf or cls is SWhile:
            return self.branch(s, at)
        if cls is SIndexSet:
            return self.apply(ops.store, [s.obj, s.index, s.value], 1, at)
        value = (self.expr(s.value, 1) if s.value is not None
                 else self.node(ENull(s.pos), 1))   # a bare return
        if cls is SReturn:
            return lambda st, fr: (value(st, fr),)
        if cls is SExpr:
            def expr_stmt(st, fr):
                value(st, fr)
            return expr_stmt
        name = s.name
        if cls is SLet:
            self.bound.add(name)
        if cls is SLet or name in self.bound or name not in self.global_names:
            def assign_local(st, fr):
                fr[name] = value(st, fr)
            return assign_local
        maybe_local = name in self.maybe

        def assign_global(st, fr):
            v = value(st, fr)
            if maybe_local and name in fr:
                fr[name] = v
                return
            if st.fuel < 0:
                spent(st)
            st.globals[name] = v
        return assign_global

    def branch(self, s, at):
        """An if or a while: its test, the goals it covers, its bodies."""
        cond = self.expr(s.cond, 1)
        loop = type(s) is SWhile
        yes, no = (BranchGoal(self.fn_name, s.stmt_id, outcome) for outcome in
                   (OUTCOMES_WHILE if loop else OUTCOMES_IF))
        then = self.block(s.body if loop else s.then_body)
        other = None if loop or s.else_body is None else self.block(s.else_body)

        def if_stmt(st, fr):
            c = cond(st, fr)
            if st.fuel < 0:
                spent(st)
            if type(c) is not int:
                fail(at, "type-error", f"condition must be int, got {value_type_name(c)}")
            if c:
                st.coverage.add(yes)
                return then(st, fr)
            st.coverage.add(no)
            if other is not None:
                return other(st, fr)

        def while_stmt(st, fr):
            st.fuel -= 1
            while True:
                c = cond(st, fr)
                if st.fuel < 0:
                    spent(st)
                if type(c) is not int:
                    fail(at, "type-error", f"condition must be int, got {value_type_name(c)}")
                if not c:
                    st.coverage.add(no)
                    return None
                st.coverage.add(yes)
                flow = then(st, fr)
                if flow is not None:
                    return flow
        return while_stmt if loop else if_stmt

    # ------------------------------------------------------------ expressions

    def leaf(self, e):
        """A closure for `e` when nothing can observe reading it (a
        constant, a local bound here), else None."""
        cls = type(e)
        if cls is EInt or cls is EFloat or cls is EBytes or cls is ENull:
            value = None if cls is ENull else e.value
            return lambda st, fr: value
        if cls is EVar and e.name in self.bound:
            name = e.name
            return lambda st, fr: fr[name]
        return None

    def children(self, exprs, k):
        """Closures for operands evaluated in order, and the steps their
        parent subtracts on entry: its own `k`, plus one for each leaf
        before the first other operand; those leaves subtract nothing."""
        out, leading = [], True
        for e in exprs:
            leaf = self.leaf(e) if leading else None
            leading = leaf is not None
            if leading:
                k += 1
            out.append(leaf if leading else self.expr(e))
        return out, k

    def expr(self, e, extra=0):
        """A closure evaluating `e`, subtracting its own step and the
        `extra` steps due just before it."""
        self.nesting += 1
        self.deepest = max(self.deepest, self.nesting)
        closure = self.node(e, extra + 1)
        self.nesting -= 1
        return closure

    def node(self, e, k):
        at, cls = self.at, type(e)
        if cls is EVar:
            return self.var(e.name, k, at)
        if cls is EBinary:
            return self.binary(e, k, at)
        if cls is ECall and e.name in self.targets:
            return self.call(e, k, at, self.targets[e.name])
        if cls is ECall:
            return self.apply(ops.BUILTINS[e.name], e.args, k, at)
        if cls is EIndex:
            return self.apply(ops.index, [e.obj, e.index], k, at)
        if cls is EField:
            return self.apply(ops.field(e.name), [e.obj], k, at)
        if cls is EUnary:
            return self.apply(ops.UNARY[e.op], [e.operand], k, at)
        if cls is ERecordLit:
            rtype, names = e.name, [n for n, _ in e.fields]
            return self.apply(
                lambda st, at, *values: Record(rtype, dict(zip(names, values))),
                [v for _, v in e.fields], k, at)
        if cls is EArrayLit:
            return self.apply(lambda st, at, *items: items, e.items, k, at)
        value = None if cls is ENull else e.value   # a constant

        def const(st, fr):
            st.fuel -= k
            return value
        return const

    def var(self, name, k, at):
        if name in self.bound:
            def local(st, fr):
                st.fuel -= k
                return fr[name]
            return local
        maybe_local = name in self.maybe

        def var(st, fr):
            st.fuel -= k
            if maybe_local and name in fr:
                return fr[name]
            try:
                return st.globals[name]
            except KeyError:
                fail(at, "type-error", f"unbound name {name!r}")
        return var

    def apply(self, op, exprs, k, at):
        """Evaluate `exprs` in order, then `op(st, at, *values)`."""
        args, k = self.children(exprs, k)
        if len(args) == 1:
            (a,) = args

            def apply1(st, fr):
                st.fuel -= k
                return op(st, at, a(st, fr))
            return apply1

        def apply(st, fr):
            st.fuel -= k
            return op(st, at, *[a(st, fr) for a in args])
        return apply

    def binary(self, e, k, at):
        slow, fast = ops.BINARY.get(e.op), ops.FAST.get(e.op)
        if slow is None:   # && or ||: the right operand only sometimes
            (left,), k = self.children([e.left], k)
            right = self.expr(e.right)
            decided = 0 if e.op == "&&" else 1   # the left value that decides
            message = f"{e.op} needs int operands"

            def logic(st, fr):
                st.fuel -= k
                a = left(st, fr)
                if type(a) is not int:
                    fail(at, "type-error", message)
                if (a != 0) == decided:
                    return decided
                b = right(st, fr)
                if type(b) is not int:
                    fail(at, "type-error", message)
                return 1 if b != 0 else 0
            return logic
        (left, right), k = self.children([e.left, e.right], k)
        if fast is None:
            def division(st, fr):
                st.fuel -= k
                return slow(at, left(st, fr), right(st, fr))
            return division
        if type(e.left) is EVar and e.left.name in self.bound and type(e.right) is EInt:
            a_name, b = e.left.name, e.right.value

            def local_const(st, fr):   # the commonest shape: i < 10, n + 1
                st.fuel -= k
                a = fr[a_name]
                if type(a) is int:
                    r = fast(a, b) + 0   # + 0 makes a comparison's bool 0 or 1
                    if INT64_MIN <= r <= INT64_MAX:
                        return r
                return slow(at, a, b)
            return local_const

        def binary(st, fr):
            st.fuel -= k
            a = left(st, fr)
            b = right(st, fr)
            if type(a) is int and type(b) is int:
                r = fast(a, b) + 0
                if INT64_MIN <= r <= INT64_MAX:
                    return r
            return slow(at, a, b)
        return binary

    def call(self, e, k, at, target):
        args, k = self.children(e.args, k)

        def call(st, fr):
            st.fuel -= k
            return _call(st, at, target, [a(st, fr) for a in args])
        return call


# ---------------------------------------------------------------- entry points

def _finish(st: _State, code: _Code, name: str, args: list, init: bool,
            started: float) -> RunResult:
    """Run `name`, folding crashes and budget exhaustion into a status."""
    host_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(host_limit, code.frames))
    value = None
    try:
        value = code.run(st, name, args, init)
        status = RunStatus("exit", code=value if type(value) is int else 0)
    except Crash as c:
        kind, message, fn, stmt = c.args
        status = RunStatus("crash", code=0, crash_kind=kind, crash_fn=fn,
                           crash_stmt=stmt, message=message)
    except OutOfSteps:
        pass
    finally:
        sys.setrecursionlimit(host_limit)
    if st.fuel < 0:   # the budget ran out before that exit or crash
        st.fuel, value, status = -1, None, RunStatus("budget-exhausted")
    tracer = st.tracer
    trace = None if tracer is None else tracer.finish(st)
    return RunResult(
        status=status,
        coverage=frozenset(st.coverage),
        trace=trace,
        steps=st.opts.step_limit - st.fuel,
        wall_time_s=time.perf_counter() - started,
        output=bytes(st.output),
        return_value=value,
        carve_stats=None if tracer is None else tracer.stats,
    )


def _run(program: Program, system_input: SystemInput, opts: RunOptions,
         traced: bool) -> RunResult:
    started = time.perf_counter()
    code = _code(program)
    st = _State(opts, tuple(system_input.argv), system_input.stdin)
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
    fn = program.function(fn_name)
    if fn is None:
        raise UnknownFunction(f"no function named {fn_name!r}")
    if len(args) != len(fn.params):
        raise TypeMismatch(
            f"{fn_name!r} takes {len(fn.params)} arguments, got {len(args)}")
    for value, (pname, declared) in zip(args, fn.params):
        if not _arg_fits(value, declared):
            raise TypeMismatch(
                f"argument {pname!r} of {fn_name!r} expects {declared}, "
                f"got {value_type_name(value)}")

    started = time.perf_counter()
    globals_, segments = world
    for gdef in program.globals:
        if gdef.name not in globals_:
            raise TypeMismatch(f"world is missing global {gdef.name!r}")

    st = _State(opts, globals_=globals_, segments=segments)
    return _finish(st, _code(program), fn_name, list(args), False, started)
