"""Interpreter tests.

The trace stream is checked against a second, naive interpreter that
re-executes the program by rule and counts the events each rule should
emit.  It shares only the parser with the real VM; evaluation,
branching, and allocation are re-implemented from scratch here.
"""

from collections import Counter
from typing import NamedTuple

import pytest

from carvelift.lang.ast import (
    EArrayLit, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt, ENull,
    ERecordLit, EUnary, EVar, SAssign, SExpr, SIf, SIndexSet, SLet, SReturn,
    SWhile,
)
from carvelift.lang.goals import enumerate_goals, goals_in_function
from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.vm.interp import (
    RunOptions,
    TraceOverflow,
    call_function,
    run_system,
    run_with_tracing,
    serialize_run_result,
)
from carvelift.vm.trace import BranchEvent, CallEvent, ReturnEvent
from carvelift.vm.values import Ref, Segment, copy_segments, wrap64

from conftest import SUBJECT_NAMES, load_subject, mk_input, random_input_for


# ------------------------------------------------------- the naive oracle

class NRef(NamedTuple):
    sid: int
    off: int


class _Ret(Exception):
    def __init__(self, value):
        self.value = value


class NaiveCounter:
    """Re-interpretation that counts trace events by rule.

    One call event per user-function invocation (main included), one
    return per completed call, one branch per conditional evaluation (so
    a loop emits enter once per iteration plus exit once).
    """

    def __init__(self, program, argv, stdin):
        self.functions = {f.name: f for f in program.functions}
        self.program = program
        self.argv = argv
        self.stdin = stdin
        self.globals = {}
        self.segments = {}
        self.next_sid = 0
        self.counts = Counter()
        self.out = bytearray()

    def run(self):
        for g in self.program.globals:
            self.globals[g.name] = self.ev(g.init, {})
        value = self.call(self.functions["main"], [])
        return value if isinstance(value, int) else 0

    def call(self, fn, args):
        self.counts["call"] += 1
        frame = {name: v for (name, _), v in zip(fn.params, args)}
        try:
            self.body(fn.body, frame)
            value = None
        except _Ret as r:
            value = r.value
        self.counts["return"] += 1
        return value

    def body(self, stmts, frame):
        for s in stmts:
            cls = type(s)
            if cls is SLet:
                frame[s.name] = self.ev(s.value, frame)
            elif cls is SAssign:
                v = self.ev(s.value, frame)
                if s.name in frame:
                    frame[s.name] = v
                elif s.name in self.globals:
                    self.globals[s.name] = v
                else:
                    frame[s.name] = v
            elif cls is SExpr:
                self.ev(s.value, frame)
            elif cls is SIf:
                self.counts["branch"] += 1
                if self.ev(s.cond, frame) != 0:
                    self.body(s.then_body, frame)
                elif s.else_body is not None:
                    self.body(s.else_body, frame)
            elif cls is SWhile:
                while True:
                    self.counts["branch"] += 1
                    if self.ev(s.cond, frame) == 0:
                        break
                    self.body(s.body, frame)
            elif cls is SReturn:
                raise _Ret(self.ev(s.value, frame)
                           if s.value is not None else None)
            elif cls is SIndexSet:
                ref = self.ev(s.obj, frame)
                idx = self.ev(s.index, frame)
                self.segments[ref.sid][ref.off + idx] = self.ev(s.value, frame)
            else:
                raise AssertionError(s)

    def ev(self, e, frame):
        cls = type(e)
        if cls in (EInt, EFloat, EBytes):
            return e.value
        if cls is EVar:
            return frame[e.name] if e.name in frame else self.globals[e.name]
        if cls is ENull:
            return None
        if cls is EUnary:
            v = self.ev(e.operand, frame)
            if e.op == "-":
                return wrap64(-v) if type(v) is int else -v
            return 0 if v != 0 else 1
        if cls is EBinary:
            return self.binop(e, frame)
        if cls is ECall:
            if e.name in self.functions:
                return self.call(self.functions[e.name],
                                 [self.ev(a, frame) for a in e.args])
            return self.builtin(e.name, [self.ev(a, frame) for a in e.args])
        if cls is EIndex:
            obj = self.ev(e.obj, frame)
            idx = self.ev(e.index, frame)
            if isinstance(obj, NRef):
                return self.segments[obj.sid][obj.off + idx]
            return obj[idx]
        if cls is EField:
            return self.ev(e.obj, frame)[1][e.name]
        if cls is ERecordLit:
            return (e.name, {n: self.ev(v, frame) for n, v in e.fields})
        if cls is EArrayLit:
            return tuple(self.ev(v, frame) for v in e.items)
        raise AssertionError(e)

    def binop(self, e, frame):
        op = e.op
        if op == "&&":
            return 1 if self.ev(e.left, frame) != 0 \
                and self.ev(e.right, frame) != 0 else 0
        if op == "||":
            return 1 if self.ev(e.left, frame) != 0 \
                or self.ev(e.right, frame) != 0 else 0
        a, b = self.ev(e.left, frame), self.ev(e.right, frame)
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 0 if a == b else 1
        if op in ("<", "<=", ">", ">="):
            return 1 if {"<": a < b, "<=": a <= b,
                         ">": a > b, ">=": a >= b}[op] else 0
        if type(a) is int:
            if op == "+":
                return wrap64(a + b)
            if op == "-":
                return wrap64(a - b)
            if op == "*":
                return wrap64(a * b)
            q = abs(a) // abs(b)
            q = q if (a < 0) == (b < 0) else -q
            if op == "/":
                return wrap64(q)
            return wrap64(a - wrap64(q * b))
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]

    def builtin(self, name, args):
        if name == "len":
            v = args[0]
            if isinstance(v, NRef):
                return len(self.segments[v.sid]) - v.off
            return len(v)
        if name == "byte_at":
            return args[0][args[1]]
        if name == "slice":
            v = args[0]
            if isinstance(v, NRef):
                return NRef(v.sid, v.off + args[1])
            return v[args[1]:args[2]]
        if name == "concat":
            return args[0] + args[1]
        if name == "arg_count":
            return len(self.argv)
        if name == "arg":
            return self.argv[args[0]]
        if name == "read_all_input":
            return self.stdin
        if name == "print":
            v = args[0]
            self.out += v if isinstance(v, bytes) else str(v).encode()
            self.out += b"\n"
            return 0
        if name == "parse_int":
            return wrap64(int(args[0]))
        if name == "to_string":
            v = args[0]
            return v if isinstance(v, bytes) else str(v).encode()
        if name == "alloc_array":
            sid = self.next_sid
            self.next_sid += 1
            self.segments[sid] = [args[1]] * args[0]
            return NRef(sid, 0)
        raise AssertionError(name)


def event_counts(trace):
    kinds = {CallEvent: "call", ReturnEvent: "return", BranchEvent: "branch"}
    c = Counter()
    for ev in trace:
        c[kinds[type(ev)]] += 1
    return c


ORACLE_RUNS = [
    ("mini_dc", (b"1 2 +",), b""),
    ("mini_dc", (b"12 34 + p",), b""),
    ("mini_dc", (b"5 d + p 777 x p",), b""),
    ("keycheck", (b"d7wfv", b"xczZ7tz"), b""),
    ("keycheck", (b"admin", b"opensesame"), b""),
    ("mini_tac", (), b"first\nsecond\nthird\n"),
]


@pytest.mark.parametrize("name,argv,stdin", ORACLE_RUNS)
def test_trace_events_match_the_naive_interpreter(name, argv, stdin):
    prog = load_subject(name)
    result = run_with_tracing(prog, mk_input(argv, stdin))
    assert result.status.kind == "exit"
    naive = NaiveCounter(prog, argv, stdin)
    code = naive.run()
    assert event_counts(result.trace) == naive.counts
    assert result.status.code == code
    assert result.output == bytes(naive.out)


# ------------------------------------------------------- basic shapes

def test_empty_program_runs_to_exit_zero():
    p = parse("fn main() {}")
    r = run_with_tracing(p, mk_input(()))
    assert r.status.kind == "exit" and r.status.code == 0
    assert r.coverage == frozenset()
    assert [type(e) for e in r.trace] == [CallEvent, ReturnEvent]


def test_keycheck_rejects_the_unknown_user():
    prog = load_subject("keycheck")
    r = run_system(prog, mk_input((b"d7wfv",)))
    assert r.status.code == 1
    success = {g for g in goals_in_function(prog, "check_pass")
               if g.outcome == "then"}
    assert not (success & r.coverage)
    assert b"unknown user" in r.output


def test_keycheck_known_user_reaches_the_password_check():
    prog = load_subject("keycheck")
    r = run_system(prog, mk_input((b"admin",)))
    assert r.status.code == 2
    assert any(g.fn == "check_pass" for g in r.coverage)
    ok = run_system(prog, mk_input((b"admin", b"opensesame")))
    assert ok.status.code == 0
    assert b"welcome admin" in ok.output


# ------------------------------------------------------- transparency

def test_probes_are_transparent_on_subjects_and_random_inputs():
    rng = Rng(0xBEEF)
    for name in SUBJECT_NAMES:
        prog = load_subject(name)
        for _ in range(40):
            s = random_input_for(name, rng)
            plain = run_system(prog, s)
            traced = run_with_tracing(prog, s)
            assert traced.status == plain.status
            assert traced.coverage == plain.coverage
            assert traced.output == plain.output
            assert traced.steps == plain.steps


def test_runs_are_deterministic_including_the_trace():
    for name in SUBJECT_NAMES:
        prog = load_subject(name)
        rng = Rng(17)
        s = random_input_for(name, rng)
        a = serialize_run_result(run_with_tracing(prog, s))
        b = serialize_run_result(run_with_tracing(prog, s))
        assert a == b


def test_coverage_equals_the_branch_events():
    prog = load_subject("mini_sed")
    r = run_with_tracing(prog, mk_input((b"pdp",), b"alpha\nbeta\n"))
    branched = {e.goal for e in r.trace if isinstance(e, BranchEvent)}
    assert branched == set(r.coverage)
    assert r.coverage <= enumerate_goals(prog)


def test_allocation_ids_are_never_reused():
    # call_function allocates into the caller's segment table: each new
    # segment takes a fresh id past every id already in the world.
    p = parse("""
    fn grow(n: int) -> int {
        let i = 0;
        while (i < n) { let a = alloc_array(i + 1, i); i = i + 1; }
        return n;
    }
    fn main() { let x = grow(1); }
    """)
    held = {2: Segment("int", 1, [7]), 5: Segment("int", 2, [8, 9])}
    segments = copy_segments(held)
    r = call_function(p, "grow", [4], ({}, segments))
    assert r.status.kind == "exit"
    assert {sid: segments[sid] for sid in held} == held
    fresh = sorted(set(segments) - set(held))
    assert fresh == [6, 7, 8, 9]
    assert [segments[sid].length for sid in fresh] == [1, 2, 3, 4]


# ------------------------------------------------------- failure statuses

def test_crash_kinds():
    cases = [
        ("fn main() { let x = 1 / 0; }", "div-zero"),
        ("fn main() { let a = alloc_array(2, 0); let x = a[5]; }", "oob"),
        ('fn main() { abort("boom"); }', "abort"),
        ('fn main() { let x = 1 + to_string(2); }', "type-error"),
    ]
    for source, kind in cases:
        r = run_system(parse(source), mk_input(()))
        assert r.status.kind == "crash", source
        assert r.status.crash_kind == kind
        assert r.status.crash_fn == "main"
        assert r.status.is_crash()


def test_abort_message_is_carried():
    r = run_system(parse('fn main() { abort("my reason"); }'), mk_input(()))
    assert "my reason" in r.status.message


def test_unbounded_recursion_aborts():
    p = parse("fn r() { r(); }\nfn main() { r(); }")
    r = run_system(p, mk_input(()))
    assert r.status.crash_kind == "abort"
    assert "stack" in r.status.message


def test_step_budget_exhaustion_is_not_a_crash():
    p = parse("fn main() { while (1 == 1) { let x = 0; } }")
    r = run_system(p, mk_input(()), RunOptions(step_limit=500))
    assert r.status.kind == "budget-exhausted"
    assert not r.status.is_crash()
    assert r.steps <= 501


def test_step_limit_bounds_recursion_without_loops():
    # No loop and no if: only the calls themselves can stop this run,
    # which would otherwise make about 2**60 of them.
    p = parse("fn f(n: int) -> int { return n > 0 && f(n - 1) + f(n - 1) >= 0; }\n"
              "fn main() { print(f(60)); }")
    opts = RunOptions(step_limit=1000)
    for r in (run_system(p, mk_input(()), opts),
              run_with_tracing(p, mk_input(()), opts),
              call_function(p, "f", [60], ({}, {}), opts)):
        assert (r.status.kind, r.steps, r.output) == ("budget-exhausted", 1001, b"")


FAST_PATH_SOURCE = """
fn nothing() { return; }

fn main() {
    let max = 9223372036854775807;
    let min = -max - 1;
    print(max + 1);
    print(min - 1);
    print(min * -1);
    print(min / -1);
    print(-7 / 2);
    print(-7 % 2);
    print(7.5 % 2.0);
    print(-7.5 % 2.0);
    print(null == null);
    print(3 == 3);
    print(2 < 3);
    nothing();
}
"""


def test_int_fast_paths_keep_the_language_semantics():
    r = run_system(parse(FAST_PATH_SOURCE), mk_input())
    assert r.status.kind == "exit"
    assert r.output.decode().split("\n")[:-1] == [
        "-9223372036854775808", "9223372036854775807", "-9223372036854775808",
        "-9223372036854775808", "-3", "-1", "1.5", "-1.5", "1", "1", "1"]


def test_steps_and_crash_positions_follow_the_source():
    def run(source):
        return run_system(parse(source), mk_input())

    # One step per statement and per expression node; a bare return is
    # its statement's step alone, and && and || leave their right side
    # unevaluated: 1 + 1 (the call) + 1 (the return), then 3 per let.
    for op, left in (("&&", 0), ("||", 1)):
        r = run(f"fn f() {{ return; }}\n"
                f"fn main() {{ f(); let x = {left} {op} (1 / 0); }}")
        assert (r.status.kind, r.steps) == ("exit", 6)
    mixed = run("fn main() { let x = 1 == 1.0; }")
    assert (mixed.status.crash_kind, mixed.status.message) == (
        "type-error", "== on int and float")
    # A crash in a callee's argument expression is the caller's statement
    # (stmt 1 is id's return; main's lets are 2 and 3).
    arg = run("fn id(v: int) -> int { return v; }\n"
              "fn main() { let a = 0; let b = id(1 / a); }")
    assert (arg.status.crash_kind, arg.status.crash_fn,
            arg.status.crash_stmt) == ("div-zero", "main", 3)
    init = run("global a: int = 0;\nglobal b: int = 1 / a;\nfn main() {}")
    assert (init.status.crash_kind, init.status.crash_fn,
            init.status.crash_stmt) == ("div-zero", "<init>", -1)
    # The 257th call fails at its call site, the return in r.
    deep = run("fn r(n: int) -> int { return r(n + 1); }\n"
               "fn main() { let x = r(0); }")
    assert (deep.status.crash_kind, deep.status.crash_fn,
            deep.status.crash_stmt, deep.status.message) == (
        "abort", "r", 1, "call stack overflow")


def test_recursion_to_the_depth_limit_needs_no_host_stack_setting():
    # Each call nests an if, a return and an addition around the next
    # one, so 255 of them are many more host frames than 255.
    source = ("fn r(n: int) -> int {\n"
              "    if (n > 0) { if (n > -1) { return 1 + (1 + r(n - 1)) - 1; } }\n"
              "    return 0;\n"
              "}\n"
              "fn main() { print(r(%d)); }")
    ok = run_system(parse(source % 254), mk_input())
    assert (ok.status.kind, ok.output) == ("exit", b"254\n")
    over = run_system(parse(source % 255), mk_input())
    assert (over.status.crash_kind, over.status.crash_fn) == ("abort", "r")
    traced = run_with_tracing(parse(source % 254), mk_input())
    assert traced.output == b"254\n"


def test_each_program_compiles_once_per_variant(monkeypatch):
    from carvelift import resolve_program
    from carvelift.carving import carve_with_stats, context_to_world
    from carvelift.vm import interp

    built = []

    class CountingCode(interp._Code):
        def __init__(self, program, traced):
            built.append(traced)
            super().__init__(program, traced)

    monkeypatch.setattr(interp, "_Code", CountingCode)
    prog, _ = resolve_program("keycheck")
    assert prog.compiled == {}          # parsing compiles nothing
    traced = None
    for _ in range(3):
        run_system(prog, mk_input((b"admin", b"pw")))
        traced = run_with_tracing(prog, mk_input((b"admin", b"pw")))
        for carved in carve_with_stats(prog, traced)[0]:
            args, world = context_to_world(carved.context)
            call_function(prog, carved.start[0], args, world)
    assert built == [False, True]


def test_compiled_code_dies_with_its_program():
    import gc
    import weakref

    prog = load_subject("mini_dc")
    run_system(prog, mk_input((), b"1 2 + p"))
    run_with_tracing(prog, mk_input((), b"1 2 + p"))
    refs = [weakref.ref(prog)] + [weakref.ref(c) for c in prog.compiled.values()]
    del prog
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_trace_overflow_signals_the_caller():
    prog = load_subject("keycheck")
    with pytest.raises(TraceOverflow):
        run_with_tracing(prog, mk_input((b"d7wfv", b"x")),
                         RunOptions(trace_limit=10))


# ------------------------------------------------------- unit invocation

def test_call_function_identity():
    p = parse("fn id(x: int) -> int { return x; }\n"
              "fn main() { let y = id(1); }")
    r = call_function(p, "id", [7], ({}, {}))
    assert r.status.kind == "exit"
    assert r.return_value == 7
    assert r.coverage == frozenset()


def test_call_function_sees_an_empty_outside_world():
    p = parse("fn probe() -> int { return arg_count() + len(read_all_input()); }\n"
              "fn main() { let y = probe(); }")
    r = call_function(p, "probe", [], ({}, {}))
    assert r.return_value == 0


def test_call_function_success_branch_in_a_carved_world():
    from carvelift.carving import carve_with_stats, context_to_world
    prog = load_subject("keycheck")
    traced = run_with_tracing(prog, mk_input((b"admin", b"pw")))
    carved = next(c for c in carve_with_stats(prog, traced)[0]
                  if c.start[0] == "check_user")
    args, world = context_to_world(carved.context)
    hit = call_function(prog, "check_user", [b"admin"], world)
    assert hit.return_value == 0
    args, world = context_to_world(carved.context)
    miss = call_function(prog, "check_user", [b"zzz"], world)
    assert miss.return_value == -1
    gained = hit.coverage - miss.coverage
    assert any(g.outcome == "then" for g in gained)


def test_call_function_dangling_ref_is_a_unit_crash():
    prog = load_subject("keycheck")
    world = ({"db": Ref(99, 0), "attempts": 0}, {})
    r = call_function(prog, "check_user", [b"admin"], world)
    assert r.status.is_crash()
    assert r.status.crash_kind == "type-error"
    assert "incomplete context" in r.status.message
