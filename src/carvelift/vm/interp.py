"""Deterministic tree-walking interpreter.

Three entry points:

    run_system        execute main against a SystemInput, coverage only
    run_with_tracing  same, but record the instrumentation event stream
    call_function     execute one function against a carved world

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
  * the call stack is capped at 256 frames; exceeding it is an abort
    crash, keeping the host stack bounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ToolError
from ..inputs import SystemInput
from ..lang.ast import (
    ENTRY, EArrayLit, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt,
    ENull, ERecordLit, EUnary, EVar, FunctionDef, Program, SAssign, SExpr,
    SIf, SIndexSet, SLet, SReturn, SWhile,
)
from ..lang.goals import BranchGoal
from .trace import BranchEvent, CallEvent, ReturnEvent, TraceEvent
from .values import (
    Record, Ref, Segment, SegmentTable, encode_value, sever,
    snapshot_reachable, value_type_name, wrap64,
)

MAX_CALL_DEPTH = 256

DEFAULT_STEP_LIMIT = 5_000_000
DEFAULT_TRACE_LIMIT = 500_000
DEFAULT_MAX_DUMP_BYTES = 65536

CRASH_KINDS = ("oob", "div-zero", "abort", "type-error")


class TraceOverflow(ToolError):
    """The event stream outgrew opts.trace_limit; skip carving this run."""


class TypeMismatch(ToolError):
    """Arguments handed to call_function do not fit the declared signature."""


@dataclass(frozen=True)
class RunOptions:
    step_limit: int = DEFAULT_STEP_LIMIT
    trace_limit: int = DEFAULT_TRACE_LIMIT
    max_dump_bytes: int = DEFAULT_MAX_DUMP_BYTES   # per traced call snapshot

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
    trace: Optional[list[TraceEvent]]
    steps: int
    wall_time_s: float
    output: bytes
    return_value: object = None


def serialize_run_result(result: RunResult) -> dict:
    """Canonical encoding for determinism checks; wall time is excluded
    because it is the one field the machine, not the program, decides."""
    from .trace import encode_event

    return {
        "status": {
            "kind": result.status.kind,
            "code": result.status.code,
            "crash_kind": result.status.crash_kind,
            "crash_fn": result.status.crash_fn,
            "crash_stmt": result.status.crash_stmt,
            "message": result.status.message,
        },
        "coverage": sorted(str(g) for g in result.coverage),
        "steps": result.steps,
        "output": result.output.decode("latin-1"),
        "return_value": encode_value(result.return_value),
        "trace": None if result.trace is None else [encode_event(e) for e in result.trace],
    }


class _Crash(Exception):
    def __init__(self, kind: str, message: str, fn: str, stmt: int):
        self.kind = kind
        self.message = message
        self.fn = fn
        self.stmt = stmt


class _Budget(Exception):
    pass


_RETURN = object()  # flow sentinel


class _Interp:
    def __init__(self, program: Program, opts: RunOptions, tracing: bool,
                 argv: tuple[bytes, ...], stdin: bytes,
                 globals_: dict | None = None,
                 segments: SegmentTable | None = None):
        self.program = program
        self.opts = opts
        self.tracing = tracing
        self.argv = argv
        self.stdin = stdin
        self.globals: dict[str, object] = globals_ if globals_ is not None else {}
        self.segments: SegmentTable = segments if segments is not None else {}
        self.next_seg = (max(self.segments) + 1) if self.segments else 0
        self.alloc_origin = "heap"
        self.steps = 0
        self.step_limit = opts.step_limit
        self.coverage: set[BranchGoal] = set()
        self.trace: list[TraceEvent] = []
        self.output = bytearray()
        self.call_counter = 0
        self.depth = 0
        self.fn_stack: list[str] = []
        self.current_stmt = -1
        self.functions = {f.name: f for f in program.functions}

    # ------------------------------------------------------------ plumbing

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise _Budget()

    def emit(self, event: TraceEvent) -> None:
        if len(self.trace) >= self.opts.trace_limit:
            raise TraceOverflow(
                f"trace exceeded {self.opts.trace_limit} events")
        self.trace.append(event)

    def crash(self, kind: str, message: str):
        # Position must be captured here: the frame stack unwinds before
        # the exception reaches the run loop.
        fn, stmt = self.here()
        raise _Crash(kind, message, fn, stmt)

    def here(self) -> tuple[str, int]:
        fn = self.fn_stack[-1] if self.fn_stack else "<init>"
        return fn, self.current_stmt

    # ------------------------------------------------------------ setup

    def init_globals(self) -> None:
        self.alloc_origin = "global"
        self.fn_stack.append("<init>")
        try:
            for g in self.program.globals:
                self.globals[g.name] = self.eval(g.init, {})
        finally:
            self.fn_stack.pop()
            self.alloc_origin = "heap"

    # ------------------------------------------------------------ calls

    def call_user(self, fn: FunctionDef, args: list):
        if self.depth >= MAX_CALL_DEPTH:
            self.crash("abort", "call stack overflow")
        call_index = self.call_counter
        self.call_counter += 1
        if self.tracing:
            self.emit(self.call_event(call_index, fn.name, args))
        frame = {name: value for (name, _), value in zip(fn.params, args)}
        self.depth += 1
        self.fn_stack.append(fn.name)
        saved_stmt = self.current_stmt
        try:
            flow = self.exec_body(fn.body, frame)
        finally:
            self.fn_stack.pop()
            self.depth -= 1
            self.current_stmt = saved_stmt
        if self.tracing:
            self.emit(ReturnEvent(call_index))
        return flow[1] if flow is not None else None

    def call_event(self, call_index: int, name: str, args: list) -> CallEvent:
        """The call's event, with its context snapshot taken now.

        Roots are the arguments, then the globals by name.  The entry call
        is never carved, so it gets no snapshot.
        """
        globals_ = dict(self.globals)
        if name == ENTRY:
            return CallEvent(call_index, name, list(args), globals_, None, False)
        segments, truncated = snapshot_reachable(
            [*args, *(globals_[n] for n in sorted(globals_))], self.segments,
            self.opts.max_dump_bytes)
        if truncated:
            args = [sever(v, segments) for v in args]
            globals_ = {n: sever(v, segments) for n, v in globals_.items()}
        return CallEvent(call_index, name, list(args), globals_, segments,
                         truncated)

    # ------------------------------------------------------------ statements

    def exec_body(self, body, frame):
        for s in body:
            self.tick()
            self.current_stmt = s.stmt_id
            cls = type(s)
            if cls is SLet or cls is SAssign:
                value = self.eval(s.value, frame)
                if cls is SLet or s.name in frame:
                    frame[s.name] = value
                elif s.name in self.globals:
                    self.globals[s.name] = value
                else:
                    frame[s.name] = value
            elif cls is SExpr:
                self.eval(s.value, frame)
            elif cls is SIf:
                taken = self.truth(self.eval(s.cond, frame))
                self.branch(s.stmt_id, "then" if taken else "else")
                chosen = s.then_body if taken else s.else_body
                if chosen is not None:
                    flow = self.exec_body(chosen, frame)
                    if flow is not None:
                        return flow
            elif cls is SWhile:
                while True:
                    self.tick()
                    self.current_stmt = s.stmt_id
                    if not self.truth(self.eval(s.cond, frame)):
                        self.branch(s.stmt_id, "loop-exit")
                        break
                    self.branch(s.stmt_id, "loop-enter")
                    flow = self.exec_body(s.body, frame)
                    if flow is not None:
                        return flow
            elif cls is SReturn:
                value = self.eval(s.value, frame) if s.value is not None else None
                return (_RETURN, value)
            elif cls is SIndexSet:
                obj = self.eval(s.obj, frame)
                index = self.eval(s.index, frame)
                value = self.eval(s.value, frame)
                self.store_index(obj, index, value)
            else:  # pragma: no cover - parser emits no other statements
                raise ToolError(f"unhandled statement {s!r}")
        return None

    def branch(self, stmt_id: int, outcome: str) -> None:
        goal = BranchGoal(self.fn_stack[-1], stmt_id, outcome)
        self.coverage.add(goal)
        if self.tracing:
            self.emit(BranchEvent(goal))

    def truth(self, v) -> bool:
        if type(v) is int:
            return v != 0
        self.crash("type-error", f"condition must be int, got {value_type_name(v)}")

    def store_index(self, obj, index, value) -> None:
        if not isinstance(obj, Ref):
            if obj is None:
                self.crash("type-error", "store through null")
            self.crash("type-error", f"cannot store into {value_type_name(obj)}")
        seg = self.segments.get(obj.seg)
        if seg is None:
            self.crash("type-error", "dangling reference")
        if type(index) is not int:
            self.crash("type-error", "index must be int")
        absolute = obj.off + index
        if index < 0 or absolute >= seg.length:
            self.crash("oob", f"store index {index} out of range")
        seg.elems[absolute] = value

    # ------------------------------------------------------------ expressions

    def eval(self, e, frame):
        self.tick()
        cls = type(e)
        if cls is EInt or cls is EFloat or cls is EBytes:
            return e.value
        if cls is EVar:
            name = e.name
            if name in frame:
                return frame[name]
            try:
                return self.globals[name]
            except KeyError:  # pragma: no cover - statically rejected
                self.crash("type-error", f"unbound name {name!r}")
        if cls is EBinary:
            return self.binary(e, frame)
        if cls is ECall:
            fn = self.functions.get(e.name)
            if fn is not None:
                args = [self.eval(a, frame) for a in e.args]
                return self.call_user(fn, args)
            return self.builtin(e, frame)
        if cls is EIndex:
            return self.load_index(self.eval(e.obj, frame), self.eval(e.index, frame))
        if cls is EField:
            obj = self.eval(e.obj, frame)
            if isinstance(obj, Record):
                try:
                    return obj.fields[e.name]
                except KeyError:
                    self.crash("type-error", f"record {obj.rtype!r} has no field {e.name!r}")
            if obj is None:
                self.crash("type-error", "field access on null")
            self.crash("type-error", f"field access on {value_type_name(obj)}")
        if cls is EUnary:
            v = self.eval(e.operand, frame)
            if e.op == "-":
                if type(v) is int:
                    return wrap64(-v)
                if type(v) is float:
                    return -v
                self.crash("type-error", f"unary - on {value_type_name(v)}")
            if type(v) is int:
                return 0 if v != 0 else 1
            self.crash("type-error", f"unary ! on {value_type_name(v)}")
        if cls is ENull:
            return None
        if cls is ERecordLit:
            return Record(e.name, {name: self.eval(v, frame) for name, v in e.fields})
        if cls is EArrayLit:
            return tuple(self.eval(v, frame) for v in e.items)
        raise ToolError(f"unhandled expression {e!r}")  # pragma: no cover

    def load_index(self, obj, index):
        if type(index) is not int:
            self.crash("type-error", "index must be int")
        if isinstance(obj, Ref):
            seg = self.segments.get(obj.seg)
            if seg is None:
                self.crash("type-error", "dangling reference")
            absolute = obj.off + index
            if index < 0 or absolute >= seg.length:
                self.crash("oob", f"index {index} out of range")
            return seg.elems[absolute]
        if isinstance(obj, tuple):
            if index < 0 or index >= len(obj):
                self.crash("oob", f"index {index} out of range")
            return obj[index]
        if obj is None:
            self.crash("type-error", "index into null")
        self.crash("type-error", f"cannot index {value_type_name(obj)}")

    def binary(self, e, frame):
        op = e.op
        if op == "&&":
            left = self.eval(e.left, frame)
            if type(left) is not int:
                self.crash("type-error", "&& needs int operands")
            if left == 0:
                return 0
            right = self.eval(e.right, frame)
            if type(right) is not int:
                self.crash("type-error", "&& needs int operands")
            return 1 if right != 0 else 0
        if op == "||":
            left = self.eval(e.left, frame)
            if type(left) is not int:
                self.crash("type-error", "|| needs int operands")
            if left != 0:
                return 1
            right = self.eval(e.right, frame)
            if type(right) is not int:
                self.crash("type-error", "|| needs int operands")
            return 1 if right != 0 else 0

        left = self.eval(e.left, frame)
        right = self.eval(e.right, frame)
        if op == "==":
            return 1 if self.equal(left, right) else 0
        if op == "!=":
            return 0 if self.equal(left, right) else 1

        tl, tr = type(left), type(right)
        if op in ("<", "<=", ">", ">="):
            if (tl is int and tr is int) or (tl is float and tr is float):
                if op == "<":
                    return 1 if left < right else 0
                if op == "<=":
                    return 1 if left <= right else 0
                if op == ">":
                    return 1 if left > right else 0
                return 1 if left >= right else 0
            self.crash("type-error",
                       f"cannot order {value_type_name(left)} and {value_type_name(right)}")

        if tl is int and tr is int:
            if op == "+":
                return wrap64(left + right)
            if op == "-":
                return wrap64(left - right)
            if op == "*":
                return wrap64(left * right)
            if op == "/":
                if right == 0:
                    self.crash("div-zero", "integer division by zero")
                q = abs(left) // abs(right)
                return wrap64(q if (left < 0) == (right < 0) else -q)
            if op == "%":
                if right == 0:
                    self.crash("div-zero", "integer modulo by zero")
                q = abs(left) // abs(right)
                q = q if (left < 0) == (right < 0) else -q
                return wrap64(left - wrap64(q * right))
        if tl is float and tr is float:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0.0:
                    self.crash("div-zero", "float division by zero")
                return left / right
            if op == "%":
                if right == 0.0:
                    self.crash("div-zero", "float modulo by zero")
                return left - right * float(int(left / right))
        self.crash("type-error",
                   f"{op} on {value_type_name(left)} and {value_type_name(right)}")

    def equal(self, left, right) -> bool:
        if left is None or right is None:
            return left is None and right is None
        tl, tr = type(left), type(right)
        if tl is not tr and not (isinstance(left, Record) and isinstance(right, Record)):
            self.crash("type-error",
                       f"== on {value_type_name(left)} and {value_type_name(right)}")
        return left == right

    # ------------------------------------------------------------ builtins

    def builtin(self, e, frame):
        name = e.name
        args = [self.eval(a, frame) for a in e.args]
        if name == "len":
            v = args[0]
            if isinstance(v, bytes):
                return len(v)
            if isinstance(v, tuple):
                return len(v)
            if isinstance(v, Ref):
                seg = self.segments.get(v.seg)
                if seg is None:
                    self.crash("type-error", "dangling reference")
                return seg.length - v.off
            self.crash("type-error", f"len of {value_type_name(v)}")
        if name == "byte_at":
            b, i = args
            if not isinstance(b, bytes):
                self.crash("type-error", "byte_at needs bytes")
            if type(i) is not int:
                self.crash("type-error", "byte_at index must be int")
            if i < 0 or i >= len(b):
                self.crash("oob", f"byte_at index {i} out of range")
            return b[i]
        if name == "slice":
            v = args[0]
            if isinstance(v, bytes):
                if len(args) != 3:
                    self.crash("type-error", "slice on bytes takes (bytes, start, end)")
                _, i, j = args
                if type(i) is not int or type(j) is not int:
                    self.crash("type-error", "slice bounds must be int")
                if i < 0 or j < i or j > len(v):
                    self.crash("oob", f"slice [{i}, {j}) out of range")
                return v[i:j]
            if isinstance(v, Ref):
                if len(args) != 2:
                    self.crash("type-error", "slice on a ref takes (ref, offset)")
                k = args[1]
                if type(k) is not int:
                    self.crash("type-error", "slice offset must be int")
                seg = self.segments.get(v.seg)
                if seg is None:
                    self.crash("type-error", "dangling reference")
                if k < 0 or v.off + k > seg.length:
                    self.crash("oob", f"slice offset {k} out of range")
                return Ref(v.seg, v.off + k)
            self.crash("type-error", f"slice of {value_type_name(v)}")
        if name == "concat":
            a, b = args
            if isinstance(a, bytes) and isinstance(b, bytes):
                return a + b
            self.crash("type-error", "concat needs bytes")
        if name == "arg_count":
            return len(self.argv)
        if name == "arg":
            i = args[0]
            if type(i) is not int:
                self.crash("type-error", "arg index must be int")
            if i < 0 or i >= len(self.argv):
                self.crash("oob", f"arg index {i} out of range")
            return self.argv[i]
        if name == "read_all_input":
            return self.stdin
        if name == "print":
            self.output.extend(self.render(args[0]))
            self.output.extend(b"\n")
            return 0
        if name == "parse_int":
            b = args[0]
            if not isinstance(b, bytes):
                self.crash("type-error", "parse_int needs bytes")
            text = b.decode("latin-1")
            body = text[1:] if text.startswith("-") else text
            if not body or not body.isascii() or not body.isdigit():
                self.crash("type-error", f"parse_int on non-decimal input {text!r}")
            return wrap64(int(text))
        if name == "to_string":
            v = args[0]
            if type(v) is int:
                return str(v).encode("ascii")
            if type(v) is float:
                return repr(v).encode("ascii")
            if isinstance(v, bytes):
                return v
            self.crash("type-error", f"to_string of {value_type_name(v)}")
        if name == "alloc_array":
            n, init = args
            if type(n) is not int:
                self.crash("type-error", "alloc_array length must be int")
            if n < 0:
                self.crash("oob", f"alloc_array length {n} is negative")
            sid = self.next_seg
            self.next_seg += 1
            self.segments[sid] = Segment(value_type_name(init), n, [init] * n,
                                         self.alloc_origin)
            return Ref(sid, 0)
        if name == "abort":
            msg = args[0]
            text = msg.decode("latin-1") if isinstance(msg, bytes) else repr(msg)
            self.crash("abort", text)
        raise ToolError(f"unhandled builtin {name!r}")  # pragma: no cover

    def render(self, v) -> bytes:
        if isinstance(v, bytes):
            return v
        if type(v) is int:
            return str(v).encode("ascii")
        if type(v) is float:
            return repr(v).encode("ascii")
        if v is None:
            return b"null"
        if isinstance(v, Ref):
            return f"ref({v.seg}, {v.off})".encode("ascii")
        if isinstance(v, tuple):
            return b"[" + b", ".join(self.render(x) for x in v) + b"]"
        if isinstance(v, Record):
            inner = b", ".join(
                k.encode("ascii") + b": " + self.render(x) for k, x in v.fields.items())
            return v.rtype.encode("ascii") + b"{" + inner + b"}"
        raise ToolError(f"cannot render {v!r}")  # pragma: no cover


def _finish(runner) -> tuple[RunStatus, object]:
    """Run `runner`, folding crashes and budget exhaustion into a status."""
    try:
        value = runner()
    except _Crash as c:
        return RunStatus("crash", code=0, crash_kind=c.kind, crash_fn=c.fn,
                         crash_stmt=c.stmt, message=c.message), None
    except _Budget:
        return RunStatus("budget-exhausted"), None
    code = value if type(value) is int else 0
    return RunStatus("exit", code=code), value


def _run(program: Program, system_input: SystemInput, opts: RunOptions,
         tracing: bool) -> RunResult:
    started = time.perf_counter()
    interp = _Interp(program, opts, tracing,
                     tuple(system_input.argv), system_input.stdin)

    def runner():
        interp.init_globals()
        return interp.call_user(interp.functions[ENTRY], [])

    status, value = _finish(runner)
    return RunResult(
        status=status,
        coverage=frozenset(interp.coverage),
        trace=interp.trace if tracing else None,
        steps=interp.steps,
        wall_time_s=time.perf_counter() - started,
        output=bytes(interp.output),
        return_value=value,
    )


def run_system(program: Program, system_input: SystemInput,
               opts: RunOptions = RunOptions()) -> RunResult:
    """Execute main against a system input; coverage only, no trace."""
    return _run(program, system_input, opts, tracing=False)


def run_with_tracing(program: Program, system_input: SystemInput,
                     opts: RunOptions = RunOptions()) -> RunResult:
    """Execute main and record the event stream carving consumes.

    Instrumentation is transparent: status and coverage always equal the
    untraced run.  Raises TraceOverflow when the stream exceeds
    opts.trace_limit; callers should fall back to run_system and skip
    carving that test.
    """
    return _run(program, system_input, opts, tracing=True)


def _arg_fits(value, declared) -> bool:
    from ..lang.ast import TArray, TBytes, TFloat, TInt, TRecord, TRef

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


def _find_dangling(args: list, globals_: dict, segments: SegmentTable) -> bool:
    from .values import iter_refs

    values = list(args) + list(globals_.values())
    for seg in segments.values():
        values.extend(seg.elems)
    return any(r.seg not in segments for v in values for r in iter_refs(v))


def call_function(program: Program, fn_name: str, args: list,
                  world: tuple[dict, SegmentTable],
                  opts: RunOptions = RunOptions()) -> RunResult:
    """Execute one function against a prepared world.

    `world` is (globals map, segment table); the callee mutates it in
    place, so the caller owns isolation (carved contexts hand out deep
    copies).  A dangling ref anywhere in the world is an incomplete
    context and is reported as a unit-level type-error crash, not as a
    tool error.  Inside the call the outside world is empty: arg_count()
    is 0 and read_all_input() returns the empty string.
    """
    from ..lang.errors import UnknownFunction

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
    interp = _Interp(program, opts, tracing=False, argv=(), stdin=b"",
                     globals_=globals_, segments=segments)

    if _find_dangling(args, globals_, segments):
        status = RunStatus("crash", crash_kind="type-error", crash_fn=fn_name,
                           message="incomplete context: dangling reference")
        return RunResult(status, frozenset(), None, 0,
                         time.perf_counter() - started, b"")

    status, value = _finish(lambda: interp.call_user(fn, list(args)))
    return RunResult(
        status=status,
        coverage=frozenset(interp.coverage),
        trace=None,
        steps=interp.steps,
        wall_time_s=time.perf_counter() - started,
        output=bytes(interp.output),
        return_value=value,
    )
