"""Interpreter tests.

The calls a traced run records are checked against the naive
interpreter in conftest, which re-executes the program by rule and
records each call's branch goals between its call and its return.
"""

import pytest

from carvelift.lang.ast import SWhile, input_reading_functions
from carvelift.lang.goals import enumerate_goals, goals_in_function
from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.vm.interp import (
    DEFAULT_STEP_LIMIT,
    RunOptions,
    call_function,
    run_system,
    run_with_tracing,
    serialize_run_result,
)
from carvelift.vm.values import Ref, copy_segments, wrap64

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
    result = run_with_tracing(prog, mk_input(argv, stdin),
                              RunOptions(step_limit=step_limit,
                                         per_fn_cap=10_000))
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
    segments = copy_segments(held)
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
