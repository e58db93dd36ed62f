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
