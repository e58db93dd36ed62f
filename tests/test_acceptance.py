"""Acceptance experiments over the whole pipeline.

Each test here is one acceptance criterion for the tool; the terminal
summary hook in conftest prints a PASS/FAIL line per criterion after
the run.  Shared fixtures run the expensive campaigns once per module.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from carvelift.bundled import resolve_seeds
from carvelift.campaign import RunConfig, run_campaign
from carvelift.carving import carve_with_stats
from carvelift.inputs import SystemInput
from carvelift.lang.goals import BranchGoal
from carvelift.lifting import lift
from carvelift.mapping import build_mapping
from carvelift.rng import Rng
from carvelift.unitgen import ParamAssignment
from carvelift.vm.interp import (
    RunOptions,
    call_function,
    run_system,
    run_with_tracing,
)
from carvelift.vm.trace import CarvedTest, Context, encode_carve
from carvelift.vm.values import Record, Ref, wrap64

from conftest import SUBJECT_NAMES, load_subject, mk_input, random_input_for

OPTS = RunOptions()
UNIT_OPTS = OPTS.unit()

KEY_SEEDS = [mk_input((b"d7wfv", b"xczZ7tz"))]
KEY_BUDGET = 1_500_000


@pytest.fixture(scope="module")
def carve_corpus():
    """Carves from 5 subjects x 20 random inputs, with setup seconds."""
    t0 = time.monotonic()
    entries = []
    for si, name in enumerate(SUBJECT_NAMES):
        program = load_subject(name)
        rng = Rng(0xACCE9700 + si)
        for _ in range(20):
            s = random_input_for(name, rng)
            r = run_with_tracing(program, s, OPTS)
            for c in carve_with_stats(r, origin="acceptance")[0]:
                entries.append((name, program, c, s))
    return entries, time.monotonic() - t0


def _key_cfg(mode: str, seed: int) -> RunConfig:
    return RunConfig(mode=mode, deterministic_clock=KEY_BUDGET,
                     rng_seed=seed, n_per_seed=10, unit_budget=200)


@pytest.fixture(scope="module")
def keycheck_campaigns():
    """10 bridge and 10 system-only keycheck campaigns, rng seeds 0..9."""
    program = load_subject("keycheck")
    t0 = time.monotonic()
    bridge = [run_campaign(program, KEY_SEEDS, _key_cfg("bridge", k),
                           "keycheck") for k in range(10)]
    baseline = [run_campaign(program, KEY_SEEDS, _key_cfg("system-only", k),
                             "keycheck") for k in range(10)]
    return program, bridge, baseline, time.monotonic() - t0


# -- criterion 1: carving fidelity ------------------------------------------

def test_criterion_1_carving_fidelity(carve_corpus):
    entries, setup_s = carve_corpus
    t0 = time.monotonic()
    replayed = Counter()
    for name, program, c, _ in entries:
        if c.context.truncated:
            continue
        args, world = c.context.world()
        r = call_function(program, c.start[0], args, world, UNIT_OPTS)
        assert r.status.kind == "exit", (name, c.start, r.status)
        assert r.coverage == c.observed_coverage, (name, c.start)
        replayed[name] += 1
    assert sum(replayed.values()) >= 100
    assert set(replayed) == set(SUBJECT_NAMES)
    assert setup_s + (time.monotonic() - t0) < 60.0


# -- criterion 2: mapping vs brute force -------------------------------------

_ALPHA = b"abXY019 ,:"


def _rand_blob(rng, max_len=9):
    return bytes(rng.choice(_ALPHA) for _ in range(rng.randrange(max_len)))


def _rand_leaf(rng):
    k = rng.randrange(5)
    if k == 0:
        return _rand_blob(rng)
    if k == 1:
        return rng.randint(-40, 40)
    if k == 2:
        return rng.randint(100, 99999)
    if k == 3:
        return float(rng.randint(-6, 6)) / 4.0
    return _rand_blob(rng, 4)


def _rand_context(rng) -> Context:
    segments = {}

    def fresh_segment():
        sid = len(segments) + 1
        segments[sid] = [_rand_leaf(rng) for _ in range(rng.randint(1, 4))]
        return Ref(sid, 0)

    def node():
        k = rng.randrange(6)
        if k == 0:
            return tuple(_rand_leaf(rng) for _ in range(rng.randint(1, 3)))
        if k == 1:
            return fresh_segment()
        if k == 2:
            return Record("T", {"a": _rand_leaf(rng), "b": _rand_leaf(rng)})
        return _rand_leaf(rng)

    roots = {}
    for i in range(rng.randint(1, 3)):
        roots[f"arg[{i}]"] = node()
    for i in range(rng.randrange(3)):
        roots[f"global:g{i}"] = node()
    return Context(roots=roots, segments=segments, truncated=False)


def _rand_input(rng, ctx: Context) -> SystemInput:
    # Splice leaf encodings into the input often enough that matches occur.
    encs = []
    for _, v in ctx.leaves():
        if isinstance(v, bytes):
            encs.append(v)
        elif isinstance(v, float):
            continue
        elif isinstance(v, int):
            encs.append(str(v).encode("ascii"))

    def blob():
        parts = []
        for _ in range(rng.randrange(4)):
            if encs and rng.randrange(2):
                parts.append(rng.choice(encs))
            else:
                parts.append(_rand_blob(rng))
        return b"".join(parts)

    argv = tuple(blob() for _ in range(rng.randrange(3)))
    return SystemInput(argv, blob())


def _brute_matches(ctx: Context, s: SystemInput, min_len: int) -> set:
    """Independent quadratic occurrence scan over every context leaf."""
    found = set()
    for path, value in ctx.leaves():
        if isinstance(value, bytes):
            needle, enc = value, "raw-bytes"
        elif isinstance(value, float):
            continue
        elif isinstance(value, int):
            needle, enc = str(value).encode("ascii"), "decimal-int"
        else:
            continue
        if len(needle) < min_len:
            continue
        for idx, elem in enumerate(s.elements()):
            for start in range(len(elem) - len(needle) + 1):
                if elem[start:start + len(needle)] == needle:
                    found.add((path, idx, start, start + len(needle), enc))
    return found


def test_criterion_2_mapping_matches_brute_force():
    t0 = time.monotonic()
    rng = Rng(0xACCE9902)
    pairs = 0
    with_matches = 0
    while pairs < 1000:
        ctx = _rand_context(rng)
        s = _rand_input(rng, ctx)
        min_len = rng.choice([3, 3, 3, 4])
        carved = CarvedTest(start=("f", 0), context=ctx, origin="synthetic",
                            observed_coverage=frozenset())
        m = build_mapping(carved, s, min_match_len=min_len)
        got = {(x.leaf, x.input_index, x.start, x.end, x.encoding)
               for x in m.matches}
        expected = _brute_matches(ctx, s, min_len)
        assert got == expected
        assert m.parameters == tuple(sorted({p for p, _, _, _, _ in expected}))
        pairs += 1
        with_matches += bool(expected)
    assert pairs == 1000
    assert with_matches >= 200, "generator produced too few matching pairs"
    assert time.monotonic() - t0 < 30.0


# -- criterion 3: identity lift ----------------------------------------------

def test_criterion_3_identity_lift_reproduces_origin(carve_corpus):
    entries, _ = carve_corpus
    parameterized = 0
    for _, _, c, origin in entries:
        m = build_mapping(c, origin)
        values = {p: c.context.resolve(p) for p in m.parameters}
        lifted = lift(m, ParamAssignment(values, "identity"), origin)
        assert lifted == origin, (c.start, c.origin)
        parameterized += bool(values)
    assert parameterized >= 30


def test_context_world_replaces_exactly_the_assigned_leaf(carve_corpus):
    entries, _ = carve_corpus
    checked = 0
    for _, _, c, origin in entries:
        if c.context.truncated:
            continue
        before = json.dumps(encode_carve(c))
        carved = list(c.context.leaves())
        for path in build_mapping(c, origin).parameters:
            old = c.context.resolve(path)
            new = old + b"!" if isinstance(old, bytes) else wrap64(old + 1)
            args, (globals_, segments) = c.context.world({path: new})
            roots = {f"arg[{i}]": v for i, v in enumerate(args)}
            roots.update((f"global:{n}", v) for n, v in globals_.items())
            rebuilt = Context(roots, segments, False)
            assert rebuilt.resolve(path) == new
            assert list(rebuilt.leaves()) == [
                (p, new if p == path else v) for p, v in carved], path
            checked += 1
        assert json.dumps(encode_carve(c)) == before, c.start
    assert checked >= 30


# -- criterion 4: login subject end to end ------------------------------------

def _found_checkpass_via_lift(report) -> bool:
    return any(goal.startswith("check_pass:") and source == "lift"
               for _, goal, source in report.first_discovery)


def _found_checkpass(report) -> bool:
    return any(goal.startswith("check_pass:")
               for _, goal, _ in report.first_discovery)


def test_criterion_4_bridge_beats_baseline_on_keycheck(keycheck_campaigns):
    _, bridge, baseline, elapsed = keycheck_campaigns
    bridge_hits = sum(map(_found_checkpass_via_lift, bridge))
    baseline_hits = sum(map(_found_checkpass, baseline))
    assert bridge_hits >= 9, f"bridge reached check_pass in {bridge_hits}/10"
    assert baseline_hits <= 1, (
        f"baseline reached check_pass in {baseline_hits}/10")
    assert elapsed < 300.0


# -- criterion 5: false-positive filtration -----------------------------------

def test_criterion_5_false_positives_filtered(keycheck_campaigns):
    program, bridge, baseline, _ = keycheck_campaigns
    for r in bridge + baseline:
        ls = r.lift_stats
        assert ls.lift_attempts == (
            ls.effective + ls.other_goal + ls.false_positive)
        assert ls.lift_attempts <= ls.unit_winners
    for r in baseline:
        assert r.lift_stats.unit_executions == 0
        assert not r.effective_inputs

    listed = 0
    for r in bridge:
        for e in r.effective_inputs:
            listed += 1
            replay = run_system(program, SystemInput(e.argv, e.stdin), OPTS)
            goals = {BranchGoal.parse(g) for g in e.goals}
            assert goals or e.crash, "effective input with nothing to show"
            assert goals <= replay.coverage, (e.argv, e.stdin)
            if e.crash is None:
                assert not replay.status.is_crash()
            else:
                kind_at_fn = (f"{replay.status.crash_kind}"
                              f"@{replay.status.crash_fn}")
                assert replay.status.is_crash() and kind_at_fn == e.crash
    assert listed >= 9, "expected effective inputs across the bridge runs"


# -- criterion 6: negative control on a non-decimal subject -------------------

def test_criterion_6_non_decimal_negative_control():
    program = load_subject("mini_dc")
    seeds = resolve_seeds(None, "mini_dc")
    reports = {}
    for mode in ("bridge", "system-only"):
        cfg = RunConfig(mode=mode, deterministic_clock=800_000, rng_seed=5)
        reports[mode] = run_campaign(program, seeds, cfg, "mini_dc")
    br, so = reports["bridge"], reports["system-only"]
    assert sum(1 for row in br.functions if row.parameterized) <= 1
    assert abs(br.discovered - so.discovered) <= 2, (
        br.discovered, so.discovered)


# -- criterion 7: mini_sed quit command ---------------------------------------

SED_STDIN = b"alpha\nbeta\ngamma\n"


def _quit_goal(program) -> BranchGoal:
    # The one then-branch of apply_script that a q script covers and a
    # p script does not: the quit-command handler.
    base = run_system(program, mk_input((b"p",), SED_STDIN), OPTS).coverage
    with_q = run_system(program, mk_input((b"q",), SED_STDIN), OPTS).coverage
    cands = [g for g in with_q - base
             if g.fn == "apply_script" and g.outcome == "then"]
    assert len(cands) == 1
    return cands[0]


def test_criterion_7_quit_branch_discovery():
    program = load_subject("mini_sed")
    quit_goal = str(_quit_goal(program))
    seeds = resolve_seeds(None, "mini_sed")
    found = 0
    jumps = 0
    for k in range(10):
        cfg = RunConfig(mode="bridge", deterministic_clock=600_000,
                        rng_seed=k)
        r = run_campaign(program, seeds, cfg, "mini_sed")
        times = [e for e, g, _ in r.first_discovery if g == quit_goal]
        if not times:
            continue
        found += 1
        t_star = times[0]
        # The discovery lands with sibling goals in the same execution,
        # so the series steps up by at least two goals at once.
        batch = [g for e, g, _ in r.first_discovery if e == t_star]
        f_pre = max((f for e, f in r.coverage_series if e < t_star),
                    default=0.0)
        post = [(e, f) for e, f in r.coverage_series if f > f_pre]
        assert post, "coverage series never rises past the discovery"
        e_post, f_post = post[0]
        if (len(batch) >= 2 and e_post >= t_star
                and (f_post - f_pre) * r.total_goals >= 2 - 1e-9):
            jumps += 1
    assert found >= 8, f"quit branch found in only {found}/10 campaigns"
    assert jumps == found


# -- criterion 8: unit vs system speedup --------------------------------------

def test_criterion_8_unit_speedup(keycheck_campaigns):
    _, bridge, _, _ = keycheck_campaigns
    speedups = [r.speedup.speedup for r in bridge]
    assert all(r.speedup.median_unit_ms > 0 for r in bridge)
    assert min(speedups) >= 10.0, f"speedups: {sorted(speedups)}"


# -- criterion 9: determinism -------------------------------------------------

def test_criterion_9_deterministic_campaigns(keycheck_campaigns):
    program, bridge, _, _ = keycheck_campaigns
    again = run_campaign(program, KEY_SEEDS, _key_cfg("bridge", 3),
                         "keycheck")
    first = bridge[3]
    assert again.first_discovery == first.first_discovery
    assert again.coverage_series == first.coverage_series
    assert again.discovered == first.discovered
    assert again.lift_stats == first.lift_stats
    assert again.budget_used == first.budget_used
