"""Campaign orchestration tests.

select_next is checked against a brute-force argmax comparator over
randomized pools; whole campaigns are checked for budget honesty,
monotone coverage, reproducibility under the step clock, and the
keycheck bridge-vs-baseline behavior predicted by the subject's
control flow.
"""

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import carvelift.campaign as campaign_module
import carvelift.lifting as lifting_module
from carvelift.bundled import resolve_program, resolve_seeds
from carvelift.campaign import (
    FunctionState,
    RunConfig,
    run_campaign,
    select_next,
)
from carvelift.errors import ConfigError, SubjectLoadError
from carvelift.lang.ast import input_reading_functions
from carvelift.lang.goals import enumerate_goals, goals_in_function
from carvelift.lang.parser import parse
from carvelift.reporting import coverage_series, parse_report
from carvelift.rng import Rng
from carvelift.sysgen import read_corpus, write_corpus, write_input_file
from carvelift.vm.interp import run_system
from carvelift.vm.trace import CarvedTest, Context

from conftest import (
    BYTES_AS_INT, GOLDENS, SUBJECT_NAMES, assert_matches_golden,
    load_subject, mk_input, report_doc, timeless,
)

# five functions with 1, 2, 2, 3, 0 conditional statements
POOL_PROG = parse("""
fn fa(x: int) -> int { if (x > 0) { return 1; } return 0; }
fn fb(x: int) -> int {
    if (x > 1) { return 1; }
    while (x < 0) { x = x + 1; }
    return x;
}
fn fc(x: int) -> int {
    while (x > 0) { x = x - 1; }
    if (x == 0) { return 9; }
    return x;
}
fn fd(x: int) -> int {
    if (x > 3) { return 3; }
    if (x > 2) { return 2; }
    if (x > 1) { return 1; }
    return 0;
}
fn fe(x: int) -> int { return x + 1; }
fn main() -> int { return fa(1) + fb(2) + fc(3) + fd(4) + fe(5); }
""")

FNS = ("fa", "fb", "fc", "fd", "fe")


def fake_carve(fn, idx):
    return CarvedTest((fn, idx), Context((), {}, {}, False), f"seed-{idx}",
                      frozenset())


def fn_states(pool, counts=None, skipped=()):
    """POOL_PROG's FunctionState records, holding `pool`'s carves."""
    counts = counts or {}
    fns = {fn: FunctionState(goals=frozenset(goals_in_function(POOL_PROG, fn)),
                             selections=counts.get(fn, 0),
                             skipped=fn in skipped)
           for fn in FNS}
    for c in pool:
        fns[c.start[0]].carves.append(c)
    return fns


def oracle_select(pool, covered, program, counts, skipped):
    by_fn = {}
    for c in pool:
        if c.start[0] not in skipped:
            by_fn.setdefault(c.start[0], []).append(c)
    ranked = []
    for fn, entries in by_fn.items():
        uncovered = len(goals_in_function(program, fn) - covered)
        if uncovered > 0:
            ranked.append(((-uncovered, counts.get(fn, 0), fn), entries))
    if not ranked:
        return None
    key, entries = min(ranked, key=lambda t: t[0])
    return entries[counts.get(key[2], 0) % len(entries)]


# ----------------------------------------------------------- select_next

def test_select_empty_pool_is_none():
    assert select_next(fn_states([]), frozenset()) is None


def test_select_prefers_most_uncovered_function():
    pool = [fake_carve("fa", 0), fake_carve("fd", 1)]
    got = select_next(fn_states(pool), frozenset())
    assert got.start[0] == "fd"


def test_select_none_when_everything_is_covered():
    pool = [fake_carve("fa", 0)]
    covered = goals_in_function(POOL_PROG, "fa")
    assert select_next(fn_states(pool), covered) is None


def test_zero_goal_functions_are_never_selected():
    pool = [fake_carve("fe", 0)]
    assert select_next(fn_states(pool), frozenset()) is None


def test_skip_is_permanent():
    pool = [fake_carve("fd", 0), fake_carve("fa", 1)]
    fns = fn_states(pool)
    fns["fd"].skipped = True
    for _ in range(3):
        got = select_next(fns, frozenset())
        assert got.start[0] == "fa"


def test_equal_scores_alternate_between_functions():
    pool = [fake_carve("fb", 0), fake_carve("fc", 1)]
    fns = fn_states(pool)
    picks = [select_next(fns, frozenset()).start[0] for _ in range(4)]
    assert picks == ["fb", "fc", "fb", "fc"]


def test_rotation_cycles_through_a_functions_carves():
    pool = [fake_carve("fd", i) for i in range(3)]
    fns = fn_states(pool)
    picks = [select_next(fns, frozenset()).start[1] for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_select_matches_brute_force_on_random_pools():
    rng = Rng(0xD15C)
    all_goals = sorted(enumerate_goals(POOL_PROG), key=str)
    for _ in range(400):
        pool = [fake_carve(FNS[rng.randrange(len(FNS))], i)
                for i in range(rng.randrange(8))]
        covered = {g for g in all_goals if rng.randrange(3) == 0}
        counts = {fn: rng.randrange(4) for fn in FNS if rng.randrange(2)}
        skipped = {fn for fn in FNS if rng.randrange(6) == 0}
        fns = fn_states(pool, counts, skipped)
        expected = oracle_select(pool, covered, POOL_PROG, counts, skipped)
        got = select_next(fns, covered)
        assert got is expected
        picked = got.start[0] if got is not None else None
        assert {fn: st.selections for fn, st in fns.items()} == {
            fn: counts.get(fn, 0) + (fn == picked) for fn in FNS}


# ----------------------------------------------------------- config

def test_config_validation():
    seeds = [mk_input((b"x",))]
    prog = load_subject("keycheck")
    with pytest.raises(ConfigError):
        run_campaign(prog, seeds, RunConfig(mode="hybrid"))
    with pytest.raises(ConfigError):
        run_campaign(prog, seeds, RunConfig(budget=0))
    with pytest.raises(ConfigError):
        run_campaign(prog, seeds, RunConfig(deterministic_clock=0))
    with pytest.raises(ConfigError):
        run_campaign(prog, seeds, RunConfig(unit_budget=0))
    with pytest.raises(ConfigError):
        run_campaign(prog, [], RunConfig())
    # Under a negative step limit a run charges the step clock negative
    # steps, so a campaign on it would never end.
    for bad in (dict(step_limit=0), dict(step_limit=-5), dict(max_dump_bytes=0)):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be positive$"):
            run_campaign(prog, seeds, RunConfig(budget=1, **bad))


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])
def test_a_wall_budget_that_is_not_a_positive_finite_number_is_refused(budget):
    # No clock reading is ever at or past NaN or infinity, so such a
    # campaign would never end.
    with pytest.raises(ConfigError, match="^wall budget must be positive and finite$"):
        run_campaign(load_subject("keycheck"), [mk_input((b"x",))],
                     RunConfig(budget=budget))


def test_seed_directory_gives_its_input_files_in_name_order(tmp_path):
    # `run --seeds DIR`: only the .input files, sorted by name.
    inputs = {"b.input": mk_input((b"b",)), "a.input": mk_input((b"a",), b"in"),
              "c.txt": mk_input((b"c",))}
    for name, s in inputs.items():
        write_input_file(tmp_path / name, s)
    assert resolve_seeds(str(tmp_path), "keycheck") == [inputs["a.input"], inputs["b.input"]]
    (tmp_path / "empty").mkdir()
    with pytest.raises(SubjectLoadError, match="has no .input files"):
        resolve_seeds(str(tmp_path / "empty"), "keycheck")


# ----------------------------------------------------------- campaigns

KEY_SEEDS = [mk_input((b"d7wfv", b"xczZ7tz"))]


def bridge_cfg(**kw):
    base = dict(mode="bridge", deterministic_clock=2_000_000, rng_seed=7)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def keycheck_bridge_report():
    return run_campaign(load_subject("keycheck"), KEY_SEEDS, bridge_cfg())


def test_bridge_reaches_the_password_check(keycheck_bridge_report):
    r = keycheck_bridge_report
    lifted = [g for _, g, src in r.first_discovery if src == "lift"]
    # check_pass is unreachable from the seed's unknown user; only a
    # lifted known-user input can take the system there
    assert any(g.startswith("check_pass:") for g in lifted)
    assert r.lift_stats.effective >= 1


def test_system_only_never_guesses_the_user(keycheck_bridge_report):
    r = run_campaign(load_subject("keycheck"), KEY_SEEDS,
                     bridge_cfg(mode="system-only"))
    assert not any(g.startswith("check_pass:") for _, g, _ in r.first_discovery)
    assert r.lift_stats.lift_attempts == 0
    assert r.speedup.unit_executions == 0
    # and at the same budget the bridge covers strictly more of keycheck
    assert keycheck_bridge_report.discovered > r.discovered


def test_budget_honesty(keycheck_bridge_report):
    r = keycheck_bridge_report
    assert r.total_wall_s >= r.system_wall_total_s
    assert r.budget_used >= r.config.deterministic_clock or \
        r.discovered == r.total_goals


@pytest.mark.parametrize("clock", ["wall", "step"])
def test_budget_used_reads_the_campaigns_clock(clock):
    """On the wall clock, budget_used is the wall seconds the campaign
    spent: its whole budget, and no more than the report's total wall
    time.  On the step clock it is the whole number of VM steps charged."""
    program, name = resolve_program("mini_dc")
    cfg = (RunConfig(mode="system-only", budget=0.05) if clock == "wall"
           else RunConfig(mode="system-only", deterministic_clock=50_000))
    r = run_campaign(program, resolve_seeds(None, name), cfg,
                     program_name=name)
    assert r.discovered < r.total_goals     # so the budget ran out
    if clock == "wall":
        assert r.config.budget <= r.budget_used <= r.total_wall_s
    else:
        assert r.budget_used >= r.config.deterministic_clock
        assert r.budget_used == int(r.budget_used)


def test_series_is_monotone_and_bounded(keycheck_bridge_report):
    r = keycheck_bridge_report
    series = coverage_series(r)
    fractions = [f for _, f in series]
    elapsed = [e for e, _ in series]
    assert fractions == sorted(fractions)
    assert elapsed == sorted(elapsed)
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert fractions[-1] == pytest.approx(r.discovered / r.total_goals)


def test_first_discovery_is_consistent(keycheck_bridge_report):
    r = keycheck_bridge_report
    times = [e for e, _, _ in r.first_discovery]
    assert times == sorted(times)
    assert len({g for _, g, _ in r.first_discovery}) == len(r.first_discovery)
    assert {src for _, _, src in r.first_discovery} <= {
        "system-seed", "system-gen", "lift"}
    assert len(r.first_discovery) == r.discovered


def test_step_clock_campaigns_reproduce_exactly(keycheck_bridge_report):
    again = run_campaign(load_subject("keycheck"), KEY_SEEDS, bridge_cfg())
    assert again.first_discovery == keycheck_bridge_report.first_discovery
    assert coverage_series(again) == coverage_series(keycheck_bridge_report)
    assert again.discovered == keycheck_bridge_report.discovered


def test_lift_goals_are_stamped_once_validation_is_charged(monkeypatch):
    campaigns, validations = [], []

    class LoggedCampaign(campaign_module._Campaign):
        def __init__(self, *args):
            super().__init__(*args)
            campaigns.append(self)

    validate = campaign_module.validate

    def logged_validate(*args, **kwargs):
        before = campaigns[-1].now()
        out = validate(*args, **kwargs)
        validations.append((before, out))
        return out

    monkeypatch.setattr(campaign_module, "_Campaign", LoggedCampaign)
    monkeypatch.setattr(campaign_module, "validate", logged_validate)
    r = run_campaign(load_subject("keycheck"), KEY_SEEDS, bridge_cfg())
    stamps = {str(g): (before, out.steps)
              for before, out in validations for g in out.discovered}
    lifted = {g: e for e, g, src in r.first_discovery if src == "lift"}
    assert lifted and lifted.keys() == stamps.keys()
    for g, e in lifted.items():
        before, steps = stamps[g]
        assert steps > 0
        assert e == before + steps


# The coverage series of each golden campaign, as report version 2 stored
# it beside the discovery log.  Version 3 keeps only the log, so these pin
# the series that coverage_series reads off it.
GOLDEN_SERIES = {
    "keycheck-bridge": (
        (8685.0, 0.5357142857142857), (109593.0, 0.5357142857142857),
    ),
    "keycheck-lift-path": (
        (8685.0, 0.5357142857142857), (118251.0, 0.6785714285714286),
        (154760.0, 0.7142857142857143), (599555.0, 0.7857142857142857),
        (1120724.0, 0.8214285714285714), (2006732.0, 0.8214285714285714),
    ),
    "keycheck-system-only": (
        (8685.0, 0.5357142857142857), (104356.0, 0.5357142857142857),
    ),
    "mini_cut-bridge": (
        (1242.0, 0.8), (2655.0, 0.875), (6005.0, 0.9), (6156.0, 0.925), (33853.0, 0.95),
        (34177.0, 0.975), (100743.0, 0.975),
    ),
    "mini_cut-system-only": (
        (1242.0, 0.8), (2655.0, 0.875), (6005.0, 0.9), (6156.0, 0.925), (8083.0, 0.95),
        (45273.0, 0.975), (100450.0, 0.975),
    ),
    "mini_dc-bridge": (
        (759.0, 0.7291666666666666), (2032.0, 0.7708333333333334), (2192.0, 0.8125),
        (4438.0, 0.8541666666666666), (5471.0, 0.875), (18782.0, 0.8958333333333334),
        (30295.0, 0.9375), (100243.0, 0.9375),
    ),
    "mini_dc-system-only": (
        (759.0, 0.7291666666666666), (2032.0, 0.7708333333333334), (2192.0, 0.8125),
        (5393.0, 0.8541666666666666), (20452.0, 0.875), (31965.0, 0.9166666666666666),
        (37451.0, 0.9375), (100737.0, 0.9375),
    ),
    "mini_sed-bridge": (
        (1617.0, 0.7142857142857143), (4191.0, 0.7380952380952381),
        (12874.0, 0.7857142857142857), (177580.0, 0.7857142857142857),
    ),
    "mini_sed-system-only": (
        (1617.0, 0.7142857142857143), (4191.0, 0.7380952380952381),
        (12874.0, 0.7857142857142857), (100790.0, 0.7857142857142857),
    ),
    "mini_tac-bridge": (
        (765.0, 0.75), (4290.0, 0.85), (145198.0, 0.85),
    ),
    "mini_tac-system-only": (
        (765.0, 0.75), (4290.0, 0.85), (12846.0, 0.9), (73317.0, 0.95),
        (100272.0, 0.95),
    ),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDENS.glob("*.json")))
def test_golden_series_are_read_off_the_discovery_log(name):
    r = parse_report((GOLDENS / f"{name}.json").read_text(encoding="ascii"))
    assert r.first_discovery
    assert coverage_series(r) == GOLDEN_SERIES[name]


def test_every_pinned_series_has_its_golden():
    assert sorted(GOLDEN_SERIES) == sorted(p.stem for p in GOLDENS.glob("*.json"))


# The first seed crashes on the missing argument before the branch.
FIRST_RUN_BLIND = """
fn main() -> int {
    if (byte_at(arg(0), 0) > 100) { return 1; }
    return 0;
}
"""


@pytest.mark.parametrize("mode", ["bridge", "system-only"])
def test_a_series_whose_first_run_finds_nothing_has_no_opening_zero(mode):
    prog = parse(FIRST_RUN_BLIND)
    seeds = [mk_input(), mk_input((b"a",))]
    assert not run_system(prog, seeds[0]).coverage
    r = run_campaign(prog, seeds, RunConfig(mode=mode,
                                            deterministic_clock=20_000))
    first = r.first_discovery[0][0]
    assert coverage_series(r)[0] == (first, 0.5)


# main runs in no steps at all; g's goals are never reached.
ZERO_STEP_MAIN = """
fn main() { }
fn g(x: int) -> int { if (x) { return 1; } return 0; }
"""


@pytest.mark.parametrize("mode", ["bridge", "system-only"])
def test_a_step_clock_campaign_ends_when_its_runs_take_no_steps(mode):
    prog = parse(ZERO_STEP_MAIN)
    assert run_system(prog, mk_input()).steps == 0
    r = run_campaign(prog, [mk_input()],
                     RunConfig(mode=mode, deterministic_clock=1000))
    assert r.budget_used == 1000
    assert r.speedup.system_executions == 1000
    assert r.discovered == 0


def test_recarving_makes_lifted_functions_carvable(keycheck_bridge_report):
    rows = {f.name: f for f in keycheck_bridge_report.functions}
    assert rows["check_pass"].carves >= 1


def test_effective_corpus_is_written(tmp_path, keycheck_bridge_report):
    out = tmp_path / "corpus"
    r = run_campaign(load_subject("keycheck"), KEY_SEEDS,
                     bridge_cfg(corpus_out=str(out)))
    assert r.lift_stats.effective >= 1
    stored = read_corpus(out)
    assert len(stored) == len(r.effective_inputs)
    by_path = {e.corpus_path for e in r.effective_inputs}
    assert all(p is not None for p in by_path)
    stored_argv = {s.argv for s in stored}
    assert {e.argv for e in r.effective_inputs} == stored_argv


def test_a_corpus_directory_that_holds_inputs_is_refused(tmp_path, monkeypatch):
    # write_corpus would overwrite 000.input and leave 001.input, so the
    # directory would read back as one corpus of two campaigns' inputs.
    out = tmp_path / "corpus"
    old = write_corpus(out, [mk_input((b"a",)), mk_input((b"b",))])
    monkeypatch.setattr(campaign_module, "_Campaign", None)    # nothing runs
    with pytest.raises(ConfigError, match="already holds .input files"):
        run_campaign(load_subject("keycheck"), KEY_SEEDS,
                     bridge_cfg(corpus_out=str(out)))
    assert sorted(out.iterdir()) == old


@pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
def test_a_corpus_path_that_is_or_is_under_a_file_is_refused_before_running(
        tmp_path, monkeypatch, below):
    # write_corpus could not make the directory, and would fail only once
    # the campaign had run.
    file = tmp_path / "corpus"
    file.write_bytes(b"not a directory")
    out = file / below
    monkeypatch.setattr(campaign_module, "_Campaign", None)    # nothing runs
    with pytest.raises(ConfigError, match=f"^corpus_out {re.escape(str(out))}: "
                                          f"{re.escape(str(file))} is not a directory$"):
        run_campaign(load_subject("keycheck"), KEY_SEEDS,
                     bridge_cfg(corpus_out=str(out)))
    assert file.read_bytes() == b"not a directory"


def test_function_rows_echo_the_program(keycheck_bridge_report):
    prog = load_subject("keycheck")
    r = keycheck_bridge_report
    rows = {f.name: f for f in r.functions}
    assert "main" not in rows
    input_dependent = input_reading_functions(prog)
    for name, row in rows.items():
        assert row.goals == len(goals_in_function(prog, name))
        assert 0 <= row.covered <= row.goals
        if row.carves == 0:
            assert row.selections == 0
        if row.parameterized:
            assert row.selections >= 1
        if name in input_dependent:
            assert row.carves == 0
    assert sum(row.carves for row in rows.values()) == r.carve_stats.carved


def test_input_dependent_functions_are_not_selectable(monkeypatch):
    # peek reads the input, so no carve of it can be fuzzed: with no other
    # function, nothing is selectable and no run is traced.
    prog = parse("""
fn peek() -> int { if (arg_count() > 1) { return 1; } return 0; }
fn main() -> int { return peek(); }
""")
    traced = []
    traced_run = campaign_module.run_with_tracing

    def logged_traced_run(*args, **kwargs):
        traced.append(args)
        return traced_run(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "run_with_tracing", logged_traced_run)
    r = run_campaign(prog, [mk_input((b"a",))],
                     RunConfig(mode="bridge", deterministic_clock=20_000))
    assert traced == []
    (row,) = r.functions
    assert (row.name, row.carves, row.selections, row.parameterized,
            row.skipped) == ("peek", 0, 0, False, False)
    assert r.speedup.system_executions > 1


def test_branchless_subject_finishes_with_seed_coverage_only():
    prog = parse("fn main() -> int { print(\"hi\"); return 0; }")
    r = run_campaign(prog, [mk_input((), b"")],
                     RunConfig(mode="bridge", deterministic_clock=100_000))
    assert r.total_goals == 0
    assert r.discovered == 0
    assert r.lift_stats.lift_attempts == 0
    assert r.speedup.system_executions >= 1
    assert coverage_series(r) == ((r.budget_used, 1.0),)   # the closing point only


def test_a_bridge_fuzzes_carves_whose_arguments_defy_their_declared_types():
    r = run_campaign(parse(BYTES_AS_INT), [mk_input((), b"hello")],
                     RunConfig(mode="bridge", deterministic_clock=100_000))
    assert r.speedup.unit_executions > 0


# ----------------------------------------------------------- tracing cut

# At this clock the cut happens in mini_dc and mini_cut, not in the others.
CUT_CLOCK = 200_000


def bundled_bridge(name):
    program, name = resolve_program(name)
    cfg = RunConfig(mode="bridge", deterministic_clock=CUT_CLOCK, rng_seed=7)
    return run_campaign(program, resolve_seeds(None, name), cfg,
                        program_name=name)


def test_each_executed_draw_builds_one_world_and_makes_one_call(monkeypatch):
    # A benchmark times the replay world by wrapping unitgen's
    # apply_assignment and the execution by wrapping its call_function;
    # the fuzz loop must call both through those names, once for each
    # draw it runs (one wall time each), or those spans go dead.
    import carvelift.unitgen as unitgen_module
    calls = {"apply_assignment": 0, "call_function": 0}
    ran = []

    def counted(name):
        fn = getattr(unitgen_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(unitgen_module, name, wrapper)

    for name in calls:
        counted(name)
    fuzz = campaign_module.fuzz_unit_with_stats

    def fuzz_round(*args, memo, **kwargs):
        before = len(memo)
        winners, stats = fuzz(*args, memo=memo, **kwargs)
        ran.append(len(memo) - before)
        return winners, stats
    monkeypatch.setattr(campaign_module, "fuzz_unit_with_stats", fuzz_round)
    program, name = resolve_program("keycheck")
    run_campaign(program, resolve_seeds(None, name),
                 RunConfig(deterministic_clock=150_000, rng_seed=7),
                 program_name=name)
    assert ran and sum(ran) > 0
    assert calls == {"apply_assignment": sum(ran), "call_function": sum(ran)}


def test_a_carved_call_runs_each_distinct_draw_once_across_rounds(monkeypatch):
    # keycheck's carves are fuzzed over many rounds, and each round
    # draws the harvested values and the int constants again.  With one
    # memo per carved call the campaign runs fewer unit executions than
    # with a fresh memo each round, and far fewer than it answers, yet
    # its report is the same.
    import carvelift.unitgen as unitgen_module
    fuzz, call = campaign_module.fuzz_unit_with_stats, unitgen_module.call_function
    program, name = resolve_program("keycheck")

    def campaign(fresh):
        ran = []

        def counted(*args, **kwargs):
            ran.append(1)
            return call(*args, **kwargs)

        def fresh_memo(*args, memo, **kwargs):
            return fuzz(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(unitgen_module, "call_function", counted)
            if fresh:
                patch.setattr(campaign_module, "fuzz_unit_with_stats", fresh_memo)
            report = run_campaign(program, resolve_seeds(None, name),
                                  RunConfig(deterministic_clock=400_000, rng_seed=7),
                                  program_name=name)
        return report, len(ran)

    kept, kept_runs = campaign(fresh=False)
    fresh, fresh_runs = campaign(fresh=True)
    assert kept_runs < fresh_runs < kept.speedup.unit_executions
    assert kept.lift_stats.unit_winners > 0
    assert report_doc(timeless(kept)) == report_doc(timeless(fresh))


def without_carve_counts(report):
    """The serialized report minus wall times and carve counts."""
    return report_doc(report, drop=(
        "total_wall_s", "system_wall_total_s", "carve_stats",
        "speedup.median_system_ms", "speedup.median_unit_ms",
        "speedup.speedup", "functions.carves"))


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_tracing_cut_changes_only_carve_counts(name, monkeypatch):
    cut = bundled_bridge(name)
    monkeypatch.setattr(campaign_module._Campaign, "selectable",
                        lambda self: True)
    full = bundled_bridge(name)
    assert without_carve_counts(cut) == without_carve_counts(full)
    assert cut.carve_stats.carved <= full.carve_stats.carved


def test_mini_dc_is_not_traced_once_nothing_is_selectable(monkeypatch):
    log = []
    selectable = campaign_module._Campaign.selectable
    traced_run = campaign_module.run_with_tracing

    def logged_selectable(self):
        ok = selectable(self)
        log.append("selectable" if ok else "unselectable")
        return ok

    def logged_traced_run(*args, **kwargs):
        log.append("traced")
        return traced_run(*args, **kwargs)

    monkeypatch.setattr(campaign_module._Campaign, "selectable",
                        logged_selectable)
    monkeypatch.setattr(campaign_module, "run_with_tracing", logged_traced_run)
    report = bundled_bridge("mini_dc")
    cut = log.index("unselectable")
    assert "traced" in log[:cut]
    assert "traced" not in log[cut:]
    assert log[cut:].count("unselectable") > 1   # runs went on, untraced
    assert report.carve_stats.carved > 0


# ----------------------------------------------------------- golden reports

# Each bundled subject's step-clock report at rng seed 7 and a 100k-step
# clock, wall-time fields zeroed, is kept in tests/goldens/.  Anything
# that changes what a step-clock campaign does or reports changes one of
# these files; such a change must say why in CHANGES.md and commit the
# files rewritten (see conftest.REGEN_GOLDENS).
GOLDEN_CLOCK = 100_000
GOLDEN_CAMPAIGNS = sorted((name, mode) for name in SUBJECT_NAMES
                          for mode in ("bridge", "system-only"))


@pytest.mark.parametrize("name,mode", GOLDEN_CAMPAIGNS)
def test_step_clock_reports_match_golden_files(name, mode):
    program, name = resolve_program(name)
    cfg = RunConfig(mode=mode, deterministic_clock=GOLDEN_CLOCK, rng_seed=7)
    report = run_campaign(program, resolve_seeds(None, name), cfg,
                          program_name=name)
    assert_matches_golden(report, f"{name}-{mode}")


# The keycheck_bridge_report fixture (KEY_SEEDS, 2M-step clock, rng seed
# 7).  Unlike the 100k-step campaigns above it goes down the lift path:
# three lift attempts, one of each classification, and an effective
# input with argv bytes, so the lift stamps and the base64 fields are
# in the pinned document.
def test_lift_path_report_matches_golden_file(keycheck_bridge_report):
    r = keycheck_bridge_report
    assert (r.lift_stats.lift_attempts, r.lift_stats.effective,
            r.lift_stats.other_goal, r.lift_stats.false_positive) == (3, 1, 1, 1)
    assert r.effective_inputs and all(r.effective_inputs[0].argv)
    assert_matches_golden(r, "keycheck-lift-path")


# The same two campaigns in fresh interpreters under two hash seeds: set
# and dict iteration order must not reach a report (nor compiled code).
HASH_SEED_SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
from workloads import report_digest
from carvelift import resolve_program, resolve_seeds
from carvelift.campaign import RunConfig, run_campaign
for name, mode in (("keycheck", "bridge"), ("mini_sed", "system-only")):
    program, name = resolve_program(name)
    cfg = RunConfig(mode=mode, deterministic_clock=100_000, rng_seed=3)
    print(report_digest(run_campaign(program, resolve_seeds(None, name), cfg,
                                     program_name=name)))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parent.parent
    script = HASH_SEED_SCRIPT.format(bench=str(root / "bench"))
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                              os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]


# ----------------------------------------------------------- step memo

def log_system_runs(monkeypatch):
    """Log each system run that executes, as ("run", key, kind, wall), and
    each run_one request answered without one, as ("answered", key, kind,
    None).  A key is the input's (argv, stdin); kind is traced, untraced
    or validation, and for a request the kind of run it asked for."""
    log = []

    def logged(module, attr, kind):
        fn = getattr(module, attr)

        def wrapper(program, s, *args, **kwargs):
            r = fn(program, s, *args, **kwargs)
            log.append(("run", (tuple(s.argv), s.stdin), kind, r.wall_time_s))
            return r
        monkeypatch.setattr(module, attr, wrapper)

    logged(campaign_module, "run_system", "untraced")
    logged(campaign_module, "run_with_tracing", "traced")
    logged(lifting_module, "run_system", "validation")
    run_one = campaign_module._Campaign.run_one

    def logged_run_one(self, s, *args):
        before = len(log)
        traced = self.cfg.mode == "bridge" and self.selectable()
        run_one(self, s, *args)
        if len(log) == before:
            log.append(("answered", (tuple(s.argv), s.stdin),
                        "traced" if traced else "untraced", None))
    monkeypatch.setattr(campaign_module._Campaign, "run_one", logged_run_one)
    return log


# The golden campaigns in which a repeat is answered by the steps of a
# validation run: an effective lift that run_one re-runs untraced.
ANSWERED_BY_VALIDATION = {("mini_cut", "bridge"): 1}
# The golden campaigns whose traced runs repeat an input already traced.
TRACED_REPEATS = {("keycheck", "bridge"): 1, ("mini_dc", "bridge"): 2}


@pytest.mark.parametrize("name,mode", GOLDEN_CAMPAIGNS)
def test_no_input_runs_untraced_twice_in_a_campaign(name, mode, monkeypatch):
    """Nor traced twice: a traced repeat takes its first traced run's
    carves."""
    log = log_system_runs(monkeypatch)
    program, name = resolve_program(name)
    cfg = RunConfig(mode=mode, deterministic_clock=GOLDEN_CLOCK, rng_seed=7)
    report = run_campaign(program, resolve_seeds(None, name), cfg,
                          program_name=name)
    first_run: dict = {}    # key -> the kind of its first run
    traced = set()
    for event, key, kind, _ in log:
        if event == "run":
            assert kind != "untraced" or key not in first_run
            assert kind != "traced" or key not in traced
            first_run.setdefault(key, kind)
            if kind == "traced":
                traced.add(key)
        else:   # charged the steps of an earlier run
            assert key in (traced if kind == "traced" else first_run)
    executed = [e for e in log if e[0] == "run"]
    answered = [e for e in log if e[0] == "answered"]
    assert report.speedup.system_executions == len(executed) + len(answered)
    assert sum(first_run[e[1]] == "validation" for e in answered) == (
        ANSWERED_BY_VALIDATION.get((name, mode), 0))
    assert sum(e[2] == "traced" for e in answered) == (
        TRACED_REPEATS.get((name, mode), 0))
    if mode == "system-only":
        assert answered


@pytest.mark.parametrize("name,mode", GOLDEN_CAMPAIGNS)
def test_every_recorded_goal_is_a_goal_of_the_program(name, mode, monkeypatch):
    """_Campaign.uncovered compares the discovered count with the goal
    count, which holds only while record logs goals of the program."""
    program, name = resolve_program(name)
    goals = enumerate_goals(program)
    record = campaign_module._Campaign.record
    sources = []

    def checked_record(self, found, source):
        assert found <= goals, sorted(map(str, found - goals))
        sources.append(source)
        record(self, found, source)
    monkeypatch.setattr(campaign_module._Campaign, "record", checked_record)
    cfg = RunConfig(mode=mode, deterministic_clock=GOLDEN_CLOCK, rng_seed=7)
    report = run_campaign(program, resolve_seeds(None, name), cfg,
                          program_name=name)
    assert sources and report.discovered <= report.total_goals == len(goals)


def test_wall_times_cover_only_the_runs_that_executed(monkeypatch):
    log = log_system_runs(monkeypatch)
    program, name = resolve_program("mini_cut")
    report = run_campaign(program, resolve_seeds(None, name),
                          RunConfig(mode="system-only", budget=0.2),
                          program_name=name)
    walls = [e[3] for e in log if e[0] == "run"]
    answered = sum(e[0] == "answered" for e in log)
    assert answered > 0
    assert report.speedup.system_executions == len(walls) + answered
    assert report.speedup.median_system_ms == statistics.median(walls) * 1000.0
    assert report.system_wall_total_s == pytest.approx(sum(walls))


def test_the_unit_median_covers_every_unit_run_that_executed(monkeypatch):
    import carvelift.unitgen as unitgen_module
    call, walls = unitgen_module.call_function, []

    def logged(*args, **kwargs):
        r = call(*args, **kwargs)
        walls.append(r.wall_time_s)
        return r
    monkeypatch.setattr(unitgen_module, "call_function", logged)
    program, name = resolve_program("keycheck")
    report = run_campaign(program, resolve_seeds(None, name),
                          RunConfig(deterministic_clock=150_000, rng_seed=7),
                          program_name=name)
    assert 0 < len(walls) < report.speedup.unit_executions
    assert report.speedup.median_unit_ms == statistics.median(walls) * 1000.0


# ----------------------------------------------------------- memory bounds

def test_a_wall_clock_campaign_grows_with_what_it_found(monkeypatch):
    """About a second of mini_dc bridge runs thousands of executions,
    yet the series holds at most total_goals + 1 points, and the
    window of system walls and the step memo keep their bound."""
    campaigns = []

    class LoggedCampaign(campaign_module._Campaign):
        def __init__(self, *args):
            super().__init__(*args)
            campaigns.append(self)

    monkeypatch.setattr(campaign_module, "_Campaign", LoggedCampaign)
    monkeypatch.setattr(campaign_module, "STEP_MEMO_ENTRIES", 256)
    program, name = resolve_program("mini_dc")
    r = run_campaign(program, resolve_seeds(None, name),
                     RunConfig(mode="bridge", budget=1.0, rng_seed=7),
                     program_name=name)
    (c,) = campaigns
    series = coverage_series(r)
    assert r.speedup.system_executions > 10 * (r.total_goals + 2)
    assert len(series) <= r.total_goals + 1
    assert series[-1] == (r.budget_used, r.discovered / r.total_goals)
    moves = [f for _, f in series[:-1]]   # all but the closing point
    assert len(set(moves)) == len(moves)
    assert len(c.sys_walls) == len(c.steps_of) == 256 < c.system_executions


def test_a_step_memo_bound_changes_no_report(monkeypatch):
    """With room for 64 inputs the memo forgets most of them, and their
    repeats run again: same steps, same goals, the same timeless report."""
    log = log_system_runs(monkeypatch)
    monkeypatch.setattr(campaign_module, "STEP_MEMO_ENTRIES", 64)
    program, name = resolve_program("mini_dc")
    r = run_campaign(program, resolve_seeds(None, name),
                     RunConfig(mode="system-only",
                               deterministic_clock=GOLDEN_CLOCK, rng_seed=7),
                     program_name=name)
    runs = [key for event, key, kind, _ in log
            if event == "run" and kind == "untraced"]
    assert len(runs) > len(set(runs)) > 64     # forgotten repeats ran again
    assert_matches_golden(r, f"{name}-system-only")
