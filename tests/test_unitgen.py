"""Unit-level fuzzing tests.

Soundness oracle: every winner is re-executed from scratch and must
reproduce its recorded status; its new goals must be inside the replay's
coverage.
"""

import hashlib
import re

import pytest

from carvelift.carving import carve_with_stats
from carvelift.errors import TypeMismatch
from carvelift.mapping import build_mapping
from carvelift.rng import Rng
from carvelift.unitgen import (
    NoParameters, UnknownParameter, ParamAssignment, apply_assignment,
    bytes_mutations, fuzz_unit_with_stats, int_mutations,
)
from carvelift.vm.interp import RunOptions, call_function, run_with_tracing
from carvelift.vm.trace import CarvedTest, Context
from carvelift.vm.values import INT64_MAX, INT64_MIN, Record, Ref

from conftest import load_subject, mk_input


def bare_carve(roots, segments=None, start=("f", 1)):
    return CarvedTest(start, Context(roots, segments or {}, False),
                      "test", frozenset())


def take(stream, n):
    return [next(stream) for _ in range(n)]


# ------------------------------------------------------------ int streams

def test_int_constants_appear_exactly_once():
    got = take(int_mutations(5, Rng(3)), 300)
    constants = [v for label, v in got if label == "int-constant"]
    assert constants == [0, INT64_MAX, INT64_MIN]


def test_int_stream_for_zero_still_yields_extremes():
    got = take(int_mutations(0, Rng(3)), 12)
    values = [v for _, v in got]
    assert INT64_MAX in values and INT64_MIN in values


def test_int_bitflips_flip_single_bits():
    got = take(int_mutations(1, Rng(9)), 400)
    flips = {v for label, v in got if label == "int-bitflip"}
    assert 0 in flips  # bit 0 of 1 cleared
    assert all(bin((v ^ 1) % (1 << 64)).count("1") == 1 for v in flips)


def test_int_stream_reproducible():
    a = take(int_mutations(42, Rng(7)), 200)
    b = take(int_mutations(42, Rng(7)), 200)
    assert a == b


def test_int_stream_stays_in_64_bit_range():
    for _, v in take(int_mutations(INT64_MIN, Rng(1)), 500):
        assert INT64_MIN <= v <= INT64_MAX


# ------------------------------------------------------------ bytes streams

def empty_ctx():
    return Context({}, {}, False)


def test_bytes_stream_total_on_empty_value():
    got = take(bytes_mutations(b"", empty_ctx(), Rng(2)), 50)
    assert all(isinstance(v, bytes) and len(v) >= 1 for _, v in got)
    families = {label for label, _ in got}
    assert {"bytes-random", "bytes-ascii", "bytes-nul", "bytes-ff"} <= families


def test_harvested_values_lead_the_stream():
    ctx = Context(
        {"arg[0]": b"d7wfv", "global:db": Ref(0, 0)},
        {0: [Record("U", {"name": b"admin", "hash": 1234567})]},
        False)
    got = take(bytes_mutations(b"d7wfv", ctx, Rng(4)), 40)
    harvested = [v for label, v in got if label == "harvested"]
    assert got[0][0] == "harvested"
    assert b"admin" in harvested
    assert b"d7wfv" in harvested
    assert b"1234567" in harvested  # int leaves harvest as decimal text
    assert harvested.count(b"admin") == 1


def test_repetition_produces_doubled_substrings():
    got = take(bytes_mutations(b"ab", empty_ctx(), Rng(0)), 400)
    reps = {v for label, v in got if label == "bytes-repeat"}
    assert b"abab" in reps


def test_nul_and_ff_run_lengths_follow_the_value():
    got = take(bytes_mutations(b"abcde", empty_ctx(), Rng(6)), 300)
    nuls = {len(v) for label, v in got if label == "bytes-nul"}
    assert nuls <= {1, 4, 5, 6, 10}
    assert nuls & {5, 10}


def test_bytes_stream_reproducible():
    ctx = Context({"arg[0]": b"seed"}, {}, False)
    a = take(bytes_mutations(b"seed", ctx, Rng(11)), 200)
    b = take(bytes_mutations(b"seed", ctx, Rng(11)), 200)
    assert a == b


# ------------------------------------------------------------ assignments

def test_empty_assignment_is_identity():
    carved = bare_carve(
        {"arg[0]": b"abc", "global:n": 7, "global:p": Ref(0, 0)},
        {0: [1, 2]})
    args, (globals_, segments) = apply_assignment(
        carved, ParamAssignment({}, "none"))
    base_args, (base_globals, base_segments) = carved.context.world()
    assert args == base_args
    assert globals_ == base_globals
    assert segments == base_segments


def test_assignment_replaces_only_the_target_leaf():
    carved = bare_carve({"arg[0]": b"d7wfv", "arg[1]": 4, "global:t": b"x"})
    args, (globals_, _) = apply_assignment(
        carved, ParamAssignment({"arg[0]": b"admin"}, "harvested"))
    assert args == [b"admin", 4]
    assert globals_ == {"t": b"x"}
    assert carved.context.roots["arg[0]"] == b"d7wfv"  # original untouched


def test_assignment_reaches_into_segments():
    carved = bare_carve(
        {"global:db": Ref(3, 0)},
        {3: [
            Record("U", {"name": b"admin", "h": 1}),
            Record("U", {"name": b"guest", "h": 2}),
        ]})
    _, (_, segments) = apply_assignment(
        carved, ParamAssignment({"global:db[1].name": b"evil"}, "test"))
    assert segments[3][1].fields["name"] == b"evil"
    assert segments[3][0].fields["name"] == b"admin"
    assert carved.context.segments[3][1].fields["name"] == b"guest"


@pytest.mark.parametrize("assign,unknown", [
    pytest.param(lambda c, values: apply_assignment(c, ParamAssignment(values, "t")),
                 UnknownParameter, id="apply_assignment"),
    pytest.param(lambda c, values: c.context.world(values), KeyError, id="world"),
])
def test_assignment_rejects_unknown_paths_and_wrong_types(assign, unknown):
    """`Context.world` checks each assigned value; `apply_assignment`
    only reports an unknown path as an UnknownParameter."""
    carved = bare_carve({"arg[0]": b"abc", "arg[1]": 4, "global:n": 7,
                         "global:r": Ref(0, 0), "global:s": Ref(0, 0),
                         "global:t": (1, 2)}, {0: [5]})
    # Only the paths `leaves` writes: global:r[0] names the segment's
    # element, so neither a second ref to it nor another spelling does.
    for path in ("arg[5]", "global:s[0]", "global:r[00]"):
        with pytest.raises(unknown, match=re.escape(path)):
            assign(carved, {path: b"x"})
    with pytest.raises(TypeMismatch):
        assign(carved, {"arg[0]": 9})
    with pytest.raises(TypeMismatch):       # paths are checked in sorted order
        assign(carved, {"arg[5]": b"x", "arg[0]": 9})
    for path in ("arg[1]", "global:n"):     # a bool or a float is not an int
        for value in (True, 1.5):
            with pytest.raises(TypeMismatch):
                assign(carved, {path: value})
    for path in ("global:r", "global:t"):   # a ref and an array
        with pytest.raises(TypeMismatch):
            assign(carved, {path: 1})
    # Ints past 64 bits wrap, as the VM's arithmetic does.
    for value, wrapped in ((INT64_MAX + 1, INT64_MIN), ((1 << 64) + 5, 5),
                           (INT64_MIN - 1, INT64_MAX), (2 ** 70 + 3, 3)):
        args, _ = assign(carved, {"arg[1]": value})
        assert args == [b"abc", wrapped]
    # The checks do not depend on whether the path was looked up before.
    with pytest.raises(TypeMismatch):
        assign(carved, {"arg[1]": b"x"})


ISOLATION_PROG = """
global count: int = 0;
global cells: ref int = alloc_array(2, 0);
fn touch(r: ref int, n: int) -> int {
    let before = r[0];
    r[0] = n;
    cells = alloc_array(3, n);
    count = count + n;
    return before;
}
fn main() -> int {
    return touch(cells, 5);
}
"""


def test_executions_from_one_carve_never_see_each_others_writes():
    # The callee stores through its ref argument, allocates and rebinds
    # two globals.  Neither the carve's context (its roots, segments and
    # what it keeps) nor the next execution's world shows those writes.
    from carvelift.lang.parser import parse
    prog = parse(ISOLATION_PROG)
    carved = next(c for c in carve_with_stats(run_with_tracing(prog, mk_input()))[0]
                  if c.start[0] == "touch")
    ctx = carved.context
    ref = ctx.roots["arg[0]"]
    roots = dict(ctx.roots)
    segments = {sid: list(seg) for sid, seg in ctx.segments.items()}
    assert roots == {"arg[0]": ref, "arg[1]": 5, "global:cells": ref,
                     "global:count": 0}
    assert segments == {ref.seg: [0, 0]}
    for n in (7, 9):
        args, world = apply_assignment(carved, ParamAssignment(
            {"arg[1]": n, "arg[0][1]": n + 1}, "t"))
        assert (args, world) == ([ref, n], ({"cells": ref, "count": 0},
                                            {ref.seg: [0, n + 1]}))
        r = call_function(prog, "touch", args, world)
        assert (r.status.kind, r.return_value) == ("exit", 0)
        globals_, table = world
        fresh = globals_["cells"]
        assert (globals_["count"], table[ref.seg], table[fresh.seg]) == (
            n, [n, n + 1], [n, n, n])
        assert (ctx.roots, ctx.segments) == (roots, segments)
    assert ctx.places == {"arg[0]": (ref, 0, ()), "arg[0][0]": (0, (ref.seg, 0), ()),
                          "arg[0][1]": (0, (ref.seg, 1), ()), "arg[1]": (5, 1, ()),
                          "global:cells": (ref, "cells", ()), "global:count": (0, "count", ())}
    assert ctx.split == ([ref, 5], {"cells": ref, "count": 0})


# ------------------------------------------------------------ fuzzing

HARVEST_PROG = """
global key: bytes = "SECRET99";

fn check(a: bytes, b: bytes) -> int {
    let r = 0;
    if (a == key) { r = r + 1; }
    if (b == key) { r = r + 2; }
    return r;
}

fn main() -> int {
    return check(arg(0), arg(1));
}
"""


def harvest_setup():
    from carvelift.lang.parser import parse
    prog = parse(HARVEST_PROG)
    s = mk_input((b"aaa", b"bbb"))
    result = run_with_tracing(prog, s)
    carves, _ = carve_with_stats(result)
    carved = carves[0]
    mapping = build_mapping(carved, s)
    assert set(mapping.parameters) == {"arg[0]", "arg[1]"}
    return prog, result, carved, mapping


def test_fuzz_unit_finds_goals_for_every_parameter():
    prog, result, carved, mapping = harvest_setup()
    winners = fuzz_unit_with_stats(
        prog, carved, mapping, 60, result.coverage, Rng(21))[0]
    hit_paths = set()
    for w in winners:
        assert not w.status.is_crash()
        assert w.new_goals
        hit_paths.update(w.assignment.assignments)
    # the harvested global key unlocks the branch behind each parameter
    assert hit_paths == {"arg[0]", "arg[1]"}


def test_fuzz_unit_winners_replay_exactly():
    prog, result, carved, mapping = harvest_setup()
    winners = fuzz_unit_with_stats(
        prog, carved, mapping, 60, result.coverage, Rng(21))[0]
    assert winners
    for w in winners:
        args, world = apply_assignment(carved, w.assignment)
        rr = call_function(prog, carved.start[0], args, world,
                           RunOptions().unit())
        assert rr.status == w.status
        assert w.new_goals <= rr.coverage


def draws(carved, mapping, budget, rng):
    """The (path, label, value) draws of a fuzz round, drawn as the fuzzer
    draws them: one `rng.split()` child per parameter, streams in turn."""
    streams = []
    for path in mapping.parameters:
        leaf = carved.context.resolve(path)
        child = rng.split()
        streams.append((path, bytes_mutations(leaf, carved.context, child)
                        if isinstance(leaf, bytes) else
                        int_mutations(leaf, child)))
    for k in range(budget):
        path, gen = streams[k % len(streams)]
        label, value = next(gen)
        yield path, label, value


def test_fuzz_unit_respects_budget_and_leaves_the_carve_alone():
    import copy
    prog, result, carved, mapping = harvest_setup()
    before = copy.deepcopy(carved)
    winners, stats = fuzz_unit_with_stats(
        prog, carved, mapping, 37, result.coverage, Rng(5))
    distinct = {(path, value)
                for path, _, value in draws(carved, mapping, 37, Rng(5))}
    assert stats.executions == 37
    assert stats.steps > 0
    assert len(stats.wall_times_s) == len(distinct)
    assert carved == before
    assert len(winners) <= 37


def reference_fuzz(prog, carved, mapping, budget, known, rng):
    """Every draw run through apply_assignment and call_function, with
    the fuzzer's rule for keeping an execution."""
    working, signatures, winners, steps = set(known), set(), [], 0
    for path, label, value in draws(carved, mapping, budget, rng):
        assignment = ParamAssignment({path: value}, label)
        args, world = apply_assignment(carved, assignment)
        r = call_function(prog, carved.start[0], args, world,
                          RunOptions().unit())
        steps += r.steps
        new_goals = r.coverage - working
        working |= new_goals
        keep = bool(new_goals)
        if r.status.is_crash():
            signature = (r.status.crash_kind, r.status.crash_fn,
                         r.status.crash_stmt)
            keep = keep or signature not in signatures
            signatures.add(signature)
        if keep:
            winners.append((assignment, r.status, new_goals))
    return winners, steps


def unit_cases():
    """Seed carves of keycheck and mini_sed, plus a mini_sed carve under a
    one-byte script whose only parameter is a three-byte line: its byte
    streams repeat often."""
    from carvelift import resolve_program, resolve_seeds
    for subject, inputs in (
            ("keycheck", resolve_seeds(None, "keycheck")),
            ("mini_sed", resolve_seeds(None, "mini_sed")
             + [mk_input((b"p",), b"abc\n")])):
        prog, _ = resolve_program(subject)
        for s in inputs:
            traced = run_with_tracing(prog, s)
            for carved in carve_with_stats(traced)[0]:
                mapping = build_mapping(carved, s)
                if mapping.parameters:
                    yield prog, traced.coverage, carved, mapping


def test_fuzz_unit_runs_each_distinct_draw_once_with_unchanged_results():
    cases = list(unit_cases())
    assert len(cases) == 4
    repeats = 0
    for prog, known, carved, mapping in cases:
        for seed in (0, 7, 4099):
            winners, stats = fuzz_unit_with_stats(
                prog, carved, mapping, 200, known, Rng(seed))
            want, want_steps = reference_fuzz(
                prog, carved, mapping, 200, known, Rng(seed))
            assert [(w.assignment, w.status, w.new_goals)
                    for w in winners] == want
            assert stats.steps == want_steps
            assert stats.executions == 200
            distinct = {(path, value) for path, _, value
                        in draws(carved, mapping, 200, Rng(seed))}
            assert len(stats.wall_times_s) == len(distinct)
            repeats += 200 - len(distinct)
    assert repeats > 0


TRIGGER_PROG = """
global trigger: bytes = "boom";

fn check(a: bytes) -> int {
    if (a == trigger) { abort("triggered"); }
    if (a == "never drawn") { return 2; }
    return 0;
}

fn main() -> int { return check(arg(0)); }
"""


def test_rounds_sharing_a_memo_keep_what_running_every_draw_keeps():
    # Two rounds of each carve share one memo, as a campaign's rounds of
    # one carved call do.  The second runs only the draws the first did
    # not, yet keeps exactly what running every draw keeps: a remembered
    # draw that reaches goals `known` lacks, or that crashes, is kept
    # again.  TRIGGER_PROG's carve crashes on its harvested global in
    # every round.
    from carvelift.lang.parser import parse
    prog = parse(TRIGGER_PROG)
    s = mk_input((b"hello",))
    traced = run_with_tracing(prog, s)
    carved = carve_with_stats(traced)[0][0]
    cases = list(unit_cases()) + [(prog, traced.coverage, carved, build_mapping(carved, s))]
    remembered = {"goals": 0, "crash": 0}
    for prog, known, carved, mapping in cases:
        memo, ran = {}, set()
        for seed in (7, 4099):
            winners, stats = fuzz_unit_with_stats(
                prog, carved, mapping, 200, known, Rng(seed), memo=memo)
            want, want_steps = reference_fuzz(prog, carved, mapping, 200, known, Rng(seed))
            assert [(w.assignment, w.status, w.new_goals) for w in winners] == want
            assert stats.steps == want_steps
            drawn = {(path, value) for path, _, value
                     in draws(carved, mapping, 200, Rng(seed))}
            assert len(stats.wall_times_s) == len(drawn - ran)
            for w in winners:
                if next(iter(w.assignment.assignments.items())) in ran:
                    remembered["crash" if w.status.is_crash() else "goals"] += 1
            ran |= drawn
            assert memo.keys() == ran
    assert remembered["goals"] > 0 and remembered["crash"] > 0


def test_fuzz_unit_fuzzes_an_int_leaf_from_its_constants():
    from carvelift.lang.goals import goals_in_function
    from carvelift.lang.parser import parse
    from carvelift.mapping import ENC_DECIMAL
    prog = parse("""
fn gate(n: int) -> int {
    if (n == 0) { return 1; }
    return 0;
}
fn main() -> int { return gate(parse_int(arg(0))); }
""")
    s = mk_input((b"123",))
    result = run_with_tracing(prog, s)
    carved = carve_with_stats(result)[0][0]
    mapping = build_mapping(carved, s)
    assert mapping.parameters == ("arg[0]",)
    assert [m.encoding for m in mapping.matches] == [ENC_DECIMAL]
    drawn = list(draws(carved, mapping, 12, Rng(3)))
    assert drawn[0] == ("arg[0]", "int-constant", 0)
    assert [v for _, label, v in drawn if label == "int-constant"] == [
        0, INT64_MAX, INT64_MIN]
    winners = fuzz_unit_with_stats(
        prog, carved, mapping, 12, result.coverage, Rng(3))[0]
    # Only 0 takes the gated branch; no bit flip of 123 is 0.
    gated = goals_in_function(prog, "gate") - result.coverage
    assert [g.outcome for g in gated] == ["then"]
    assert [(w.assignment.assignments, w.assignment.provenance, w.new_goals)
            for w in winners] == [({"arg[0]": 0}, "int-constant", gated)]


def test_fuzz_unit_requires_parameters():
    from carvelift.lang.parser import parse
    prog = parse("""
fn f(x: int) -> int { return x; }
fn main() -> int { return f(1); }
""")
    s = mk_input()
    result = run_with_tracing(prog, s)
    carves, _ = carve_with_stats(result)
    carved = carves[0]
    mapping = build_mapping(carved, s)
    assert mapping.parameters == ()
    with pytest.raises(NoParameters):
        fuzz_unit_with_stats(prog, carved, mapping, 10, result.coverage,
                             Rng(1))


def test_fuzz_unit_reports_nothing_when_nothing_new_is_reachable():
    from carvelift.lang.parser import parse
    prog = parse("""
fn same(x: bytes) -> int {
    if (1) { return 7; }
    return 0;
}
fn main() -> int { return same(arg(0)); }
""")
    s = mk_input((b"tok",))
    result = run_with_tracing(prog, s)
    carves, _ = carve_with_stats(result)
    carved = carves[0]
    mapping = build_mapping(carved, s)
    winners = fuzz_unit_with_stats(
        prog, carved, mapping, 50, result.coverage, Rng(2))[0]
    assert winners == []


def test_fuzz_unit_discovers_admin_on_keycheck():
    prog = load_subject("keycheck")
    s = mk_input((b"d7wfv", b"xczZ7tz"))
    result = run_with_tracing(prog, s)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_user")
    mapping = build_mapping(carved, s)
    winners = fuzz_unit_with_stats(
        prog, carved, mapping, 200, result.coverage, Rng(0))[0]
    values = {w.assignment.assignments["arg[0]"] for w in winners}
    assert b"admin" in values


# ------------------------------------------------------------ pinned streams

def stream_digest(subject, fn, seed, n=2000):
    """sha256 of the first `n` pairs of the int stream of `fn`'s first int
    leaf, then of the bytes stream of its first bytes leaf, on the carve
    of `fn` from the subject's first seed."""
    from carvelift import resolve_program, resolve_seeds
    prog, _ = resolve_program(subject)
    traced = run_with_tracing(prog, resolve_seeds(None, subject)[0])
    carved = next(c for c in carve_with_stats(traced)[0] if c.start[0] == fn)
    ctx = carved.context
    leaves = list(ctx.leaves())
    int_leaf = next(v for _, v in leaves if type(v) is int)
    bytes_leaf = next(v for _, v in leaves if type(v) is bytes)
    pairs = (take(int_mutations(int_leaf, Rng(seed)), n)
             + take(bytes_mutations(bytes_leaf, ctx, Rng(seed)), n))
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


# Taken before the value streams were last made faster: the same rng
# must give the same values, or every campaign's report moves.
STREAM_DIGESTS = {
    ("keycheck", "check_user", 3):
        "05f3f0f05d4483bb104854857f8e6bd903ffea8c15b98cb150da5871de802ff3",
    ("keycheck", "check_user", 11):
        "68e8546b7e6bf9aeff2124167ec5252a13ff9e189f9fdb6aec10703f8f31b42e",
    ("mini_sed", "apply_script", 3):
        "18c7ce1a3599f2364d379bc1c57922363ccb6db5fa221370313f8934ddeb6a2c",
    ("mini_sed", "apply_script", 11):
        "d3f9c3fe5a3227291e86448c8131644e39986162a0c42bb0e278c0e7f053081c",
}


@pytest.mark.parametrize("subject,fn,seed", list(STREAM_DIGESTS))
def test_mutation_streams_are_pinned(subject, fn, seed):
    assert stream_digest(subject, fn, seed) == STREAM_DIGESTS[subject, fn, seed]
