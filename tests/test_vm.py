"""Interpreter tests.

The calls a traced run records are checked against the naive
interpreter in conftest, which re-executes the program by rule and
records each call's branch goals between its call and its return.
"""

import cProfile
import pstats
import re
from types import SimpleNamespace

import pytest

from carvelift.lang.ast import SWhile, input_reading_functions, iter_stmts
from carvelift.errors import TypeMismatch
from carvelift.lang.errors import UnknownFunction
from carvelift.lang.goals import enumerate_goals, goals_in_function
from carvelift.lang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, parse
from carvelift.rng import Rng
from carvelift.vm import ops, trace
from carvelift.vm.interp import (
    DEFAULT_STEP_LIMIT,
    RunOptions,
    RunStatus,
    call_function,
    run_system,
    run_with_tracing,
)
from carvelift.vm.ops import Crash, OutOfSteps
from carvelift.vm.trace import serialize_run_result
from carvelift.vm.values import INT64_MIN, Record, Ref, equal, wrap64

from conftest import (
    SUBJECT_NAMES, NaiveCounter, load_subject, mk_input, random_input_for,
)


ORACLE_RUNS = [
    # mini_dc reads its program from stdin.
    pytest.param("mini_dc", (), b"1 2 +", id="mini_dc-stdin0"),
    pytest.param("mini_dc", (), b"12 34 + p", id="mini_dc-stdin1"),
    pytest.param("mini_dc", (), b"5 d + p 777 x p", id="mini_dc-stdin2"),
    ("keycheck", (b"d7wfv", b"xczZ7tz"), b""),
    ("keycheck", (b"admin", b"opensesame"), b""),
    ("mini_tac", (), b"first\nsecond\nthird\n"),
]


@pytest.mark.parametrize("name,argv,stdin", ORACLE_RUNS)
def test_trace_events_match_the_naive_interpreter(name, argv, stdin):
    result, code = check_recorded_calls(name, argv, stdin)
    assert result.status.kind == "exit"
    assert result.status.code == code


# (subject, argv, stdin, step limit, how the run ends)
EARLY_END_RUNS = [
    ("mini_dc", (), b"5 d p + + p", DEFAULT_STEP_LIMIT, "crash"),
    # The limit falls inside hash_pw's 600 stretching rounds.
    ("keycheck", (b"admin", b"pw"), b"", 3000, "budget-exhausted"),
]


@pytest.mark.parametrize("name,argv,stdin,limit,kind", EARLY_END_RUNS)
def test_recorded_calls_match_the_naive_interpreter_in_runs_that_end_early(
        name, argv, stdin, limit, kind):
    result, code = check_recorded_calls(name, argv, stdin, limit,
                                        max_iterations=300)
    assert result.status.kind == kind
    assert code is None


def check_recorded_calls(name, argv, stdin, step_limit=DEFAULT_STEP_LIMIT,
                         max_iterations=None):
    """With a cap that records every carvable call, the run records
    exactly the oracle's completed calls of functions other than main
    and the input readers, each with the oracle's goal set; the counts
    and the run's coverage and output agree with the oracle too.

    Returns the run and the oracle's exit code.
    """
    prog = load_subject(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "PER_FN_CAP", 10_000)
        result = run_with_tracing(prog, mk_input(argv, stdin),
                                  RunOptions(step_limit=step_limit))
    naive = NaiveCounter(prog, argv, stdin, max_iterations)
    code = naive.run()
    skip = input_reading_functions(prog) | {"main"}
    expected = {i: (fn, goals) for i, (fn, goals) in enumerate(naive.calls)
                if goals is not None and fn not in skip}
    assert {c.start[1]: (c.start[0], c.observed_coverage)
            for c in result.trace} == expected
    assert [c.start[1] for c in result.trace] == sorted(expected)
    stats = result.carve_stats
    assert stats.carved == len(expected)
    assert stats.skipped_capped == 0
    assert stats.skipped_incomplete == sum(
        1 for fn, goals in naive.calls if goals is None and fn != "main")
    assert stats.skipped_input_dependent == sum(
        1 for fn, goals in naive.calls
        if goals is not None and fn in skip - {"main"})
    assert result.coverage == naive.coverage
    assert result.coverage <= enumerate_goals(prog)
    assert result.output == bytes(naive.out)
    return result, code


# ------------------------------------------------------- basic shapes

def test_empty_program_runs_to_exit_zero():
    p = parse("fn main() {}")
    r = run_with_tracing(p, mk_input(()))
    assert r.status.kind == "exit" and r.status.code == 0
    assert r.coverage == frozenset()
    assert r.trace == [] and r.carve_stats.skipped_incomplete == 0


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
    held = {2: [7], 5: [8, 9]}
    segments = {sid: list(seg) for sid, seg in held.items()}
    r = call_function(p, "grow", [4], ({}, segments))
    assert r.status.kind == "exit"
    assert {sid: segments[sid] for sid in held} == held
    fresh = sorted(set(segments) - set(held))
    assert fresh == [6, 7, 8, 9]
    assert [len(segments[sid]) for sid in fresh] == [1, 2, 3, 4]


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


def test_parse_int_of_a_long_decimal_wraps_to_64_bits():
    # 5,000 digits is past CPython's default int-from-string limit; the
    # expected values come from int arithmetic, which has no such limit.
    prog = parse("fn main() { print(parse_int(read_all_input())); }")
    ones = (10 ** 5000 - 1) // 9
    for sign, value in ((b"", ones), (b"-", -ones)):
        r = run_system(prog, mk_input(stdin=sign + b"1" * 5000))
        assert r.status.kind == "exit"
        assert r.output == b"%d\n" % wrap64(value)


def test_int_fast_paths_keep_the_language_semantics():
    r = run_system(parse(FAST_PATH_SOURCE), mk_input())
    assert r.status.kind == "exit"
    assert r.output.decode().split("\n")[:-1] == [
        "-9223372036854775808", "9223372036854775807", "-9223372036854775808",
        "-9223372036854775808", "-3", "-1", "1.5", "-1.5", "1", "1", "1"]


def emitted_source(monkeypatch, program) -> str:
    """The Python source the VM writes for `program`, on its first run."""
    import carvelift.vm.interp as interp
    sources = []

    def spy(source, *rest):
        sources.append(source)
        return compile(source, *rest)
    monkeypatch.setattr(interp, "compile", spy, raising=False)
    run_system(program, mk_input())
    (source,) = sources
    return source


LITERAL_OPERANDS_SOURCE = """
fn main() {
    let b = "d"; let e = "e"; let f = 1.5; let z = null;
    print(b == "d"); print("d" == b); print(b != "d"); print(e == "d");
    print("d" == "d"); print("d" != "e"); print(f < 2.5); print(f == 1.5);
    print(f + 1.5); print(z == null); print(null != b); print(b == null);
    print(f * 2.0 > 2.5);
}
"""


def test_a_literal_that_is_not_an_int_gets_no_int_guard(monkeypatch):
    program = parse(LITERAL_OPERANDS_SOURCE)
    source = emitted_source(monkeypatch, program)
    for literal in ("b'd'", "1.5", "None", "2.0"):
        assert f"type({literal})" not in source
    assert source.count(" is bytes else ") == 4     # b == "d" to e == "d"
    r = run_system(program, mk_input())
    assert (r.status.kind, r.output.split()) == (
        "exit", b"1 1 0 0 1 1 1 1 3.0 1 1 0 1".split())
    assert "type(b'" not in emitted_source(monkeypatch, load_subject("mini_dc"))
    # Nor does an int literal: keycheck's byte_at(name, 0) and stores
    # through a ref at 0, 1 and 2 test only the other operand.
    keycheck = emitted_source(monkeypatch, load_subject("keycheck"))
    assert "byte_at" in keycheck and " f >= 0: s[" in keycheck
    assert not re.search(r"type\(-?\d+\) is int", keycheck)


def loop_body(source: str, stmt_id: int) -> list[str]:
    """The emitted lines of while loop `stmt_id`, its test included."""
    lines = source.split("\n")
    end = next(i for i, line in enumerate(lines) if f"st.coverage.add(G{stmt_id}1); break" in line)
    head = max(i for i in range(end) if lines[i].strip() == "while True:")
    depth = len(lines[head]) - len(lines[head].lstrip())
    body = []
    for line in lines[head + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            break
        body.append(line)
    return body


def test_a_proven_int_loop_keeps_no_guard_and_no_fuel_write(monkeypatch):
    keycheck = load_subject("keycheck")
    (stretch,) = [s for s in iter_stmts(keycheck.function("hash_pw").body)
                  if type(s) is SWhile and getattr(s.cond.right, "value", None) == 600]
    body = loop_body(emitted_source(monkeypatch, keycheck), stretch.stmt_id)
    assert len(body) > 5
    assert not [line for line in body if "type(" in line or "st.fuel" in line]


# Characters of each subject's emitted source when crash positions were
# tuple literals and every loop pass wrote st.fuel; it may only shrink.
SOURCE_LENGTH_BOUNDS = {"keycheck": 9251, "mini_sed": 13263, "mini_cut": 12934,
                        "mini_tac": 7790, "mini_dc": 19095}


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_emitted_source_does_not_grow(monkeypatch, name):
    assert len(emitted_source(monkeypatch, load_subject(name))) <= SOURCE_LENGTH_BOUNDS[name]


def test_a_profile_names_each_compiled_function_after_its_source():
    program = load_subject("keycheck")
    profile = cProfile.Profile()
    profile.runcall(run_system, program, mk_input((b"d7wfv", b"xczZ7tz")))
    names = {name for file, _, name in pstats.Stats(profile).stats if file == "<carvelift>"}
    numbered = {f"F{i}_{fn.name}" for i, fn in enumerate(program.functions)}
    assert "INIT" in names and f"F{len(numbered) - 1}_main" in names
    assert names - {"<module>", "INIT"} <= numbered and len(names & numbered) > 2


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_each_loop_adds_its_enter_goal_once_per_entry(monkeypatch, name):
    program = load_subject(name)
    source = emitted_source(monkeypatch, program)
    loops = [s.stmt_id for fn in program.functions for s in iter_stmts(fn.body)
             if type(s) is SWhile]
    assert loops
    for n in loops:
        # Set before the loop, cleared by the pass that adds the goal.
        assert source.count(f"st.coverage.add(G{n}0)") == 1
        assert f"if e{n}: e{n} = 0; st.coverage.add(G{n}0)" in source
        assert re.search(rf"\n *e{n} = 1\n( *f -= \d+\n)? *while True:\n", source)


@pytest.mark.parametrize("expr,message", [
    ("i == \"d\"", "== on int and bytes"), ("\"d\" != a", "!= on bytes and array"),
    ("\"d\" < \"e\"", "cannot order bytes and bytes"), ("i + 1.5", "+ on int and float"),
    ("n < 1.5", "cannot order int and float"),
])
def test_a_literal_operand_of_the_wrong_type_still_crashes(expr, message):
    r = run_system(parse("fn main() { let i = 1; let a = [1]; let n = arg_count();"
                         f" print({expr}); }}"), mk_input())
    assert (r.status.crash_kind, r.status.message) == ("type-error", message)


def test_a_store_through_a_literal_is_the_slow_call_and_crashes(monkeypatch):
    program = parse("fn main() { null[0] = 1; }")
    source = emitted_source(monkeypatch, program)
    assert "STORE(st, P" in source and "else: STORE" not in source
    r = run_system(program, mk_input())
    assert (r.status.crash_kind, r.status.crash_fn, r.status.message) == (
        "type-error", "main", "store through null")


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


def test_equality_is_pythons_on_nested_values():
    # n and m are two NaN floats: unequal, but an item inside an array
    # or a record equals itself; ints equal floats of the same value.
    source = """
record P { x: float, y: [float] }
fn main() {
    let f = 1.0; let i = 0;
    while (i < 400) { f = f * 10.0; i = i + 1; }
    let n = f - f; let m = f - f;
    let a = [n, [n]];
    print(n == n); print(a == a); print([n] == [n]); print([n] == [m]);
    print(a == [n, [n]]); print(a == [n, [m]]); print([1, 2] == [1, 2.0]);
    let p = P{x: n, y: [n]};
    print(p == p); print(p == P{x: n, y: [n]}); print(p == P{x: m, y: [n]});
    print(p != P{x: n, y: [m]}); print([[1], null] == [[1], null]);
    print([alloc_array(1, 0)] == [alloc_array(1, 0)]); print(["a", 1] == [1, "a"]);
}
"""
    r = run_system(parse(source), mk_input())
    assert (r.status.kind, r.output.split()) == ("exit", b"0 1 1 0 1 0 1 1 1 0 1 1 0 0".split())


def test_else_if_links_nested_to_the_block_limit_compile():
    # A later link's body is compiled two levels deeper than its chain;
    # twenty of them around the deepest expression (a right-nested &&,
    # one level deeper per operand) still fit Python's indentation limit.
    levels, extra = divmod(MAX_EXPR_DEPTH - 3, 2)
    inner = ("print(" + "(" * extra + "(k > 1 && " * levels + "k > 2"
             + ")" * (levels + extra) + ");")
    for d in range(MAX_BLOCK_DEPTH):
        inner = f"if (k == 0) {{ }} else if (k == 1) {{ }} else if (k < {d + 9}) {{ {inner} }}"
    program = parse(f"fn main() {{ let k = len(arg(0)); {inner} }}")
    for runner in (run_system, run_with_tracing):
        r = runner(program, mk_input([b"abc"]))
        assert (r.status.kind, r.output) == ("exit", b"1\n")


DEEP_VALUES = """
record Node { v: int, next: Node }
global g: [int] = [0];
fn nest(n: int) -> [int] {
    let a = [0];
    let i = 0;
    while (i < n) { a = [i, a]; i = i + 1; }
    return a;
}
fn chain(n: int) -> Node {
    let r = Node{v: 0, next: null};
    let i = 0;
    while (i < n) { r = Node{v: i, next: r}; i = i + 1; }
    return r;
}
fn show(a: [int], b: [int], r: Node, depth: int) -> int {
    if (depth > 0) { return show(a, b, r, depth - 1); }
    print(a);
    print(a == b);
    print(a == nest(3));
    print(r == chain(depth_of(r)));
    g = a;
    return 0;
}
fn depth_of(r: Node) -> int {
    let n = 0;
    while (r.next != null) { r = r.next; n = n + 1; }
    return n;
}
fn main() -> int {
    let n = parse_int(read_all_input());
    show(nest(n), nest(n), chain(n), 200);
    print(g == nest(n));
    return 0;
}
"""


@pytest.mark.parametrize("n", [600, 1500])
def test_values_nested_past_the_recursion_limit_print_and_compare(n):
    # print, == and the tracer's snapshot walk values with their own
    # stacks, 200 calls deep, so the depth of a value cannot end a run
    # with an exception.
    program = parse(DEEP_VALUES)
    text = "[0]"
    for i in range(n):
        text = f"[{i}, {text}]"
    expected = f"{text}\n1\n0\n1\n1\n".encode()
    plain = run_system(program, mk_input(stdin=str(n).encode()))
    traced = run_with_tracing(program, mk_input(stdin=str(n).encode()))
    for r in (plain, traced):
        assert (r.status.kind, r.output) == ("exit", expected)
    carve = next(c for c in traced.trace if c.start[0] == "show")
    deepest = "arg[0]" + "[1]" * n + "[0]"
    assert (deepest, 0) in carve.context.leaves()
    args, _ = carve.context.world({deepest: 7})
    assert not equal(args[0], args[1]) and equal(args[1], carve.context.roots["arg[0]"])
    unit = call_function(program, "show", *carve.context.world())
    assert (unit.status.kind, unit.output) == ("exit", expected[:-2])


def test_each_program_compiles_once_per_variant(monkeypatch):
    from carvelift import resolve_program
    from carvelift.carving import carve_with_stats
    from carvelift.vm import interp

    built = []

    class CountingCode(interp._Code):
        def __init__(self, program):
            built.append(program)
            super().__init__(program)

    monkeypatch.setattr(interp, "_Code", CountingCode)
    prog, _ = resolve_program("keycheck")
    assert prog.compiled is None        # parsing compiles nothing
    traced = None
    for _ in range(3):
        run_system(prog, mk_input((b"admin", b"pw")))
        traced = run_with_tracing(prog, mk_input((b"admin", b"pw")))
        for carved in carve_with_stats(traced)[0]:
            args, world = carved.context.world()
            call_function(prog, carved.start[0], args, world)
    assert built == [prog]      # one code for traced and untraced runs


def test_compiled_code_dies_with_its_program():
    import gc
    import weakref

    prog = load_subject("mini_dc")
    run_system(prog, mk_input((), b"1 2 + p"))
    run_with_tracing(prog, mk_input((), b"1 2 + p"))
    refs = [weakref.ref(prog), weakref.ref(prog.compiled)]
    del prog
    gc.collect()
    assert [r() for r in refs] == [None, None]


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
    from carvelift.carving import carve_with_stats
    prog = load_subject("keycheck")
    traced = run_with_tracing(prog, mk_input((b"admin", b"pw")))
    carved = next(c for c in carve_with_stats(traced)[0]
                  if c.start[0] == "check_user")
    args, world = carved.context.world()
    hit = call_function(prog, "check_user", [b"admin"], world)
    assert hit.return_value == 0
    args, world = carved.context.world()
    miss = call_function(prog, "check_user", [b"zzz"], world)
    assert miss.return_value == -1
    gained = hit.coverage - miss.coverage
    assert any(g.outcome == "then" for g in gained)


SIGNATURES = """
record P { x: int }
global g: int = 1;
fn f(i: int, x: float, b: bytes, r: ref int, a: [int], p: P) -> int { return g; }
fn main() { }
"""
GOOD_ARGS = [1, 1.5, b"b", None, (1,), Record("P", {"x": 1})]


def test_call_function_accepts_each_declared_type():
    p = parse(SIGNATURES)
    for args in (GOOD_ARGS, [1, 1.5, b"", Ref(0, 0), (), Record("P", {"x": 2})]):
        r = call_function(p, "f", list(args), ({"g": 3}, {0: [5]}))
        assert (r.status.kind, r.return_value) == ("exit", 3)


def test_call_function_rejects_an_unknown_function():
    with pytest.raises(UnknownFunction, match="no function named 'h'"):
        call_function(parse(SIGNATURES), "h", [], ({"g": 3}, {}))


@pytest.mark.parametrize("args,message", [
    (GOOD_ARGS[:5], "'f' takes 6 arguments, got 5"),
    (GOOD_ARGS + [1], "'f' takes 6 arguments, got 7"),
    ([], "'f' takes 6 arguments, got 0"),
])
def test_call_function_rejects_the_wrong_arity(args, message):
    with pytest.raises(TypeMismatch, match=message):
        call_function(parse(SIGNATURES), "f", args, ({"g": 3}, {}))


@pytest.mark.parametrize("position,value", [
    (0, 1.0), (0, None), (1, 1), (2, 0), (3, 0), (3, b""), (4, Ref(0, 0)),
    (4, Record("P", {"x": 1})), (5, Record("Q", {"x": 1})), (5, (1,)),
])
def test_call_function_runs_an_argument_of_another_type(position, value):
    """Declared types are not enforced: a replay runs with the arguments
    its carve recorded, whatever their types."""
    args = list(GOOD_ARGS)
    args[position] = value
    r = call_function(parse(SIGNATURES), "f", args, ({"g": 3}, {}))
    assert (r.status.kind, r.return_value) == ("exit", 3)


@pytest.mark.parametrize("where", ["global", "argument"])
@pytest.mark.parametrize("value", [True, "x", [1], "\u00e9", bytearray(b"b")])
@pytest.mark.parametrize("body,message", [
    ("return len(a);", "len of Python {}"),
    ("if (a) { return 1; } return 0;", "condition must be int, got Python {}"),
    ("return a == a;", "== on Python {0} and Python {0}"),
    ("return a != a;", "!= on Python {0} and Python {0}"),
    ("print(a); return 0;", "print of Python {}"),
])
def test_a_global_holding_a_python_value_outside_the_language_is_a_type_error(
        body, message, value, where):
    """A hand-built world or argument list can hold a Python value the
    language lacks: it is a type-error where it is used, never an
    exception out of the run."""
    if where == "global":
        p = parse(f"global a: int = 0;\nfn f() -> int {{ {body} }}\nfn main() {{ }}")
        r = call_function(p, "f", [], ({"a": value}, {}))
    else:
        p = parse(f"fn f(a: int) -> int {{ {body} }}\nfn main() {{ }}")
        r = call_function(p, "f", [value], ({}, {}))
    assert (r.status.crash_kind, r.status.crash_fn, r.status.message, r.output) == (
        "type-error", "f", message.format(type(value).__name__), b"")


def test_call_function_rejects_a_world_missing_a_global():
    p = parse(SIGNATURES)
    with pytest.raises(TypeMismatch, match="world is missing global 'g'"):
        call_function(p, "f", GOOD_ARGS, ({"h": 3}, {}))
    # The arguments are checked first.
    with pytest.raises(TypeMismatch, match="takes 6 arguments"):
        call_function(p, "f", [], ({}, {}))


@pytest.mark.parametrize("value", [2**70, 10**5000, 2**63, -2**63 - 1],
                         ids=["2**70", "10**5000", "2**63", "-2**63-1"])
def test_call_function_rejects_an_int_argument_no_run_can_hold(value):
    """A hand-built argument outside 64 bits is refused before the call:
    printed, 2**70 would show a value no run holds, and 10**5000 has
    more digits than Python converts to text."""
    p = parse("fn f(x: int) -> int { print(x); return 0; }\nfn main() { }")
    with pytest.raises(TypeMismatch, match="'f' got an int outside the signed 64-bit range"):
        call_function(p, "f", [value], ({}, {}))
    for edge in (-2**63, 2**63 - 1):
        assert call_function(p, "f", [edge], ({}, {})).output == b"%d\n" % edge


def test_call_function_dangling_ref_is_a_unit_crash():
    """A ref into a segment the world lacks crashes where it is read."""
    prog = load_subject("keycheck")
    world = ({"db": Ref(99, 0), "attempts": 0}, {})
    r = call_function(prog, "check_user", [b"admin"], world)
    assert r.status.is_crash()
    assert r.status.crash_kind == "type-error"
    assert r.status.message == "dangling reference"
    assert r.status.crash_fn == "check_user"
    reads_db = next(s for s in prog.function("check_user").body
                    if isinstance(s, SWhile))    # while (i < len(db))
    assert r.status.crash_stmt == reads_db.stmt_id


# ------------------------------------------------------- heap operations
#
# The compiled code may take an inline path for an operation on the heap
# or on two operands of unknown type; `vm/ops.py` defines what each does.
# Each run below feeds the operands through globals (call_function checks
# only their names) and must end as a direct call of the ops function on
# the same operands does.

HEAP_OPS = """
global a: int = 0;
global i: int = 0;
global j: int = 0;
global v: int = 0;
fn length() -> int { return len(a); }
fn at() -> int { return a[i]; }
fn name() -> int { return a.name; }
fn eq() -> int { return a == i; }
fn ne() -> int { return a != i; }
fn cut() -> int { return slice(a, i, j); }
fn cut2() -> int { return slice(a, i); }
fn put() -> int { a[i] = v; return 0; }
fn main() { }
"""

SLOW_PATHS = {
    "length": lambda st, at, g: ops.BUILTINS["len"](st, at, g["a"]),
    "at": lambda st, at, g: ops.index(st, at, g["a"], g["i"]),
    "name": lambda st, at, g: ops.field(st, at, g["a"], "name"),
    "eq": lambda st, at, g: ops.BINARY["=="](at, g["a"], g["i"]),
    "ne": lambda st, at, g: ops.BINARY["!="](at, g["a"], g["i"]),
    "cut": lambda st, at, g: ops.BUILTINS["slice"](st, at, g["a"], g["i"], g["j"]),
    "cut2": lambda st, at, g: ops.BUILTINS["slice"](st, at, g["a"], g["i"]),
    "put": lambda st, at, g: ops.store(st, at, g["a"], g["i"], g["v"]),
}
# Steps charged up to the operation, and up to the function's end.
HEAP_OP_STEPS = {"length": (3, 3), "at": (4, 4), "name": (3, 3), "eq": (4, 4),
                 "ne": (4, 4), "cut": (5, 5), "cut2": (4, 4), "put": (4, 6)}

NAN = float("nan")
# Segment 0 has three elements, segment 1 none; segment 9 is missing.
REFS = [Ref(0, 0), Ref(0, 2), Ref(0, 3), Ref(1, 0), Ref(9, 0)]
NOT_REFS = [None, b"abc", 5, 1.5, (10, b"x", None), (), Record("P", {"name": 1})]
INDEXES = [-1, 0, 1, 2, 3, 1.0, None, b""]
P, Q = Record("P", {"name": 7, "x": 1}), Record("Q", {"x": 1})


def nested(depth: int) -> tuple:
    a = (0,)
    for _ in range(depth):
        a = (1, a)
    return a


EQ_OPERANDS = [
    (1, 1), (1, 2), (INT64_MIN, INT64_MIN), (NAN, NAN), (-0.0, 0.0), (1.5, 2.5),
    (b"ab", b"ab"), (b"ab", b"ac"), (b"", b""), (1, b"1"), (b"1", 1), (1, 1.0),
    (1.0, 1), (None, None), (None, 1), (1, None), (None, Ref(0, 0)),
    (Ref(0, 0), Ref(0, 0)), (Ref(0, 0), Ref(0, 1)), (Ref(0, 0), 0),
    ((1, (2,)), (1, (2,))), ((1,), (2,)), ((NAN,), (NAN,)), ((), ()), ((1,), 1),
    (P, Record("P", {"name": 7, "x": 1})), (P, Q), (P, Record("P", {"name": 7})),
    (P, (1,)), (nested(1500), nested(1500)),   # deeper than Python's == recurses
]
HEAP_OP_CASES = {
    "length": [{"a": a} for a in REFS + NOT_REFS],
    "at": [{"a": a, "i": i} for a in REFS + NOT_REFS for i in INDEXES],
    "name": [{"a": a} for a in [P, Q, Record("P", {}), None, 5, b"name"] + REFS],
    "eq": [{"a": a, "i": i} for a, i in EQ_OPERANDS],
    "ne": [{"a": a, "i": i} for a, i in EQ_OPERANDS],
    "cut": [{"a": b"abcd", "i": i, "j": j} for i, j in [
        (0, 0), (0, 4), (1, 3), (4, 4), (3, 1), (0, 5), (-1, 2), (2, -1),
        (5, 5), (1.0, 2), (0, None), (None, 0), (0, 2.0)]]
    + [{"a": a, "i": 0, "j": 1} for a in [Ref(0, 0), None, 5, (1, 2), 1.5]],
    "cut2": [{"a": a, "i": i} for a in [b"abcd", Ref(0, 0), Ref(0, 2), Ref(9, 0), None]
             for i in [-1, 0, 1, 3, 1.0]],
    "put": [{"a": a, "i": i, "v": b"new"} for a in REFS + NOT_REFS for i in INDEXES],
}


def heap_world(g: dict) -> tuple[dict, dict]:
    return {"a": 0, "i": 0, "j": 0, "v": 0, **g}, {0: [10, b"x", None], 1: []}


def slow_path_result(program, fn: str, g: dict, limit: int):
    """What the run of `fn` ends as when ops does the operation: status,
    steps, return value and the segments it leaves."""
    globals_, segments = heap_world(g)
    before, total = HEAP_OP_STEPS[fn]
    at = (fn, program.function(fn).body[0].stmt_id)
    st = SimpleNamespace(segments=segments, fuel=limit - before)
    value, steps = None, limit + 1
    try:
        value = SLOW_PATHS[fn](st, at, globals_)
    except Crash as c:
        kind, message, crash_fn, stmt = c.args
        status, steps = RunStatus("crash", 0, kind, crash_fn, stmt, message), before
    except OutOfSteps:
        status = RunStatus("budget-exhausted")
    else:
        value = 0 if fn == "put" else value
        status, steps = RunStatus("exit", value if type(value) is int else 0), total
    if limit - steps < 0:
        status, value, steps = RunStatus("budget-exhausted"), None, limit + 1
    return status, steps, value, segments


@pytest.mark.parametrize("fn", sorted(HEAP_OP_CASES))
def test_heap_operations_end_as_their_ops_slow_path(fn):
    program = parse(HEAP_OPS)
    # A store runs with its fuel at exactly 0, at -1 and with room to spare.
    limits = [4, 3, DEFAULT_STEP_LIMIT] if fn == "put" else [DEFAULT_STEP_LIMIT]
    for n, g in enumerate(HEAP_OP_CASES[fn]):
        for limit in limits:
            status, steps, value, segments = slow_path_result(program, fn, g, limit)
            globals_, world = heap_world(g)
            r = call_function(program, fn, [], (globals_, world), RunOptions(step_limit=limit))
            case = (fn, n, limit)   # some operands are too deep for repr()
            assert (r.status, r.steps, r.output) == (status, steps, b""), case
            assert type(r.return_value) is type(value), case
            assert equal(r.return_value, value), case
            assert world == segments, case
