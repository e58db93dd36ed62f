"""Carving tests.

The fidelity oracle is independent of the tracer: expected per-call
coverage comes from the naive interpreter in conftest, which collects
each call's branch goals between its call and its return, and every
carve is replayed through call_function to check it reproduces them.
"""

import dataclasses
import hashlib
import json
import re
from collections import Counter

import pytest

import carvelift.campaign as campaign_module
from carvelift.bundled import resolve_program, resolve_seeds
from carvelift.campaign import RunConfig, run_campaign
from carvelift.carving import carve_with_stats
from carvelift.errors import FormatError
from carvelift.lang.parser import parse
from carvelift.rng import Rng
from carvelift.vm import trace, values
from carvelift.vm.interp import RunOptions, call_function, run_with_tracing
from carvelift.vm.trace import SNAPSHOT_VERSION, Context, load_snapshot, save_snapshot
from carvelift.vm.values import (
    INT64_MAX, INT64_MIN, Record, Ref, equal, sever, snapshot_reachable,
)

from conftest import (
    SUBJECT_NAMES, NaiveCounter, load_subject, mk_input, random_input_for,
)


def naive_calls(program, system_input):
    """Oracle: (function, goals between its call and its return) per call."""
    naive = NaiveCounter(program, system_input.argv, system_input.stdin)
    naive.run()
    return naive.calls


def replay(program, carved):
    args, world = carved.context.world()
    return call_function(program, carved.start[0], args, world)


# ------------------------------------------------------------ basics

def test_empty_main_carves_nothing():
    prog = parse("fn main() -> int { return 0; }")
    result = run_with_tracing(prog, mk_input())
    assert carve_with_stats(result)[0] == []


def test_carve_requires_trace():
    prog = parse("fn main() -> int { return 0; }")
    from carvelift.vm.interp import run_system
    result = run_system(prog, mk_input())
    with pytest.raises(ValueError):
        carve_with_stats(result)


def test_carve_fidelity_on_subjects():
    rng = Rng(0x51CE)
    for name in SUBJECT_NAMES:
        prog = load_subject(name)
        for _ in range(6):
            sysin = random_input_for(name, rng)
            result = run_with_tracing(prog, sysin)
            calls = naive_calls(prog, sysin)
            for carved in carve_with_stats(result)[0]:
                assert (carved.start[0], carved.observed_coverage) == calls[
                    carved.start[1]], (name, carved.start)
                if carved.context.truncated:
                    continue
                rr = replay(prog, carved)
                assert rr.status.kind == "exit", (name, carved.start, rr.status)
                assert rr.coverage == carved.observed_coverage, (name, carved.start)


def test_nested_callee_goals_attributed_to_open_calls():
    prog = parse("""
fn inner(x: int) -> int {
    if (x > 0) { return 1; }
    return 0;
}
fn outer(x: int) -> int {
    return inner(x) + inner(0 - x);
}
fn main() -> int {
    return outer(3);
}
""")
    result = run_with_tracing(prog, mk_input())
    carves = carve_with_stats(result)[0]
    outer_carves = [c for c in carves if c.start[0] == "outer"]
    assert len(outer_carves) == 1
    got = outer_carves[0].observed_coverage
    assert ("outer", got) == naive_calls(prog, mk_input())[
        outer_carves[0].start[1]]
    outcomes = {(g.fn, g.outcome) for g in got}
    assert ("inner", "then") in outcomes and ("inner", "else") in outcomes


def test_incomplete_calls_are_skipped():
    prog = parse("""
fn boom(r: ref int) -> int { return r[5]; }
fn main() -> int {
    let a = alloc_array(2, 0);
    return boom(a);
}
""")
    result = run_with_tracing(prog, mk_input())
    assert result.status.is_crash() and result.status.crash_kind == "oob"
    carves, stats = carve_with_stats(result)
    assert carves == []
    assert stats.skipped_incomplete == 1


def test_per_function_cap_keeps_earliest_calls(monkeypatch):
    assert trace.PER_FN_CAP == 8
    prog = parse("""
fn f(x: int) -> int { return x + 1; }
fn main() -> int {
    let i = 0;
    let acc = 0;
    while (i < 20) { acc = f(acc); i = i + 1; }
    return acc;
}
""")
    result = run_with_tracing(prog, mk_input())
    carves, stats = carve_with_stats(result)
    assert len(carves) == 8
    assert stats.skipped_capped == 12
    indices = [c.start[1] for c in carves]
    assert indices == sorted(indices)
    # first call captures acc == 0, so the cap kept the earliest calls
    assert carves[0].context.roots["arg[0]"] == 0
    monkeypatch.setattr(trace, "PER_FN_CAP", 100)
    uncapped = run_with_tracing(prog, mk_input())
    assert len(carve_with_stats(uncapped)[0]) == 20


def counting_snapshots(monkeypatch):
    """A list that grows by one for each context snapshot a run takes."""
    taken = []
    snapshot = trace.snapshot_reachable

    def counted(*args):
        taken.append(args)
        return snapshot(*args)
    monkeypatch.setattr(trace, "snapshot_reachable", counted)
    return taken


def test_calls_over_the_cap_take_no_snapshot(monkeypatch):
    prog = parse("""
fn f(x: int) -> int { return x + 1; }
fn main() -> int {
    let i = 0;
    let acc = 0;
    while (i < 20) { acc = f(acc); i = i + 1; }
    return acc;
}
""")
    taken = counting_snapshots(monkeypatch)
    result = run_with_tracing(prog, mk_input())
    assert len(taken) == 8
    assert len(result.trace) == 8


# f(2) calls f(1), which calls f(0); call indices 1, 2 and 3.
RECURSION = """
fn f(n: int) -> int {
    if (n == 0) { return 0; }
    let r = f(n - 1);
    if (n == CRASH_AT) { abort("after the inner call returned"); }
    return r + n;
}
fn main() -> int { return f(2); }
"""


def test_cap_keeps_the_one_inner_call_that_returned_before_a_crash(monkeypatch):
    # All three calls start before any returns, so all are recorded; only
    # f(0) returns, and open calls hold no place under the cap.
    prog = parse(RECURSION.replace("CRASH_AT", "1"))
    monkeypatch.setattr(trace, "PER_FN_CAP", 1)
    result = run_with_tracing(prog, mk_input())
    assert result.status.crash_kind == "abort"
    carves, stats = carve_with_stats(result)
    assert [c.start for c in carves] == [("f", 3)]
    assert (stats.carved, stats.skipped_incomplete, stats.skipped_capped) == (
        1, 2, 0)


def test_cap_keeps_the_earliest_call_of_a_recursion_that_returns(monkeypatch):
    prog = parse(RECURSION.replace("CRASH_AT", "-1"))
    monkeypatch.setattr(trace, "PER_FN_CAP", 1)
    result = run_with_tracing(prog, mk_input())
    assert result.status.kind == "exit" and result.status.code == 3
    carves, stats = carve_with_stats(result)
    assert [c.start for c in carves] == [("f", 1)]
    assert (stats.carved, stats.skipped_incomplete, stats.skipped_capped) == (
        1, 0, 2)
    # The kept carve covers its callees' goals too.
    assert carves[0].observed_coverage == result.coverage


def test_input_reading_functions_are_not_carved(monkeypatch):
    prog = parse("""
fn peek() -> int { return arg_count(); }
fn wrap() -> int { return peek(); }
fn pure(x: int) -> int { return x; }
fn main() -> int {
    let a = peek();
    let b = wrap();
    return pure(a + b);
}
""")
    taken = counting_snapshots(monkeypatch)
    result = run_with_tracing(prog, mk_input([b"one"]))
    assert [c.start[0] for c in result.trace] == ["pure"]
    assert len(taken) == 1      # only pure's call is recorded
    carves, stats = carve_with_stats(result)
    assert [c.start[0] for c in carves] == ["pure"]
    # peek called directly, and again through wrap; wrap itself also skipped
    assert stats.skipped_input_dependent == 3


# ------------------------------------------------------------ snapshots

NODE_BYTES = 8 + 8 + 8  # segment header + int elem + ref elem


def linked_list(n):
    table = {}
    for i in range(n):
        nxt = Ref(i + 1, 0) if i + 1 < n else None
        table[i] = [i, nxt]
    return table


def test_snapshot_no_refs_is_empty():
    got, truncated = snapshot_reachable([7, b"xy", 1.5], {}, 100)
    assert got == {} and truncated is False


def test_snapshot_whole_closure_when_budget_is_large():
    table = linked_list(10)
    got, truncated = snapshot_reachable([Ref(0, 0)], table, 10 * NODE_BYTES)
    assert truncated is False
    assert sorted(got) == list(range(10))
    assert got[9][1] is None


def test_snapshot_budget_cuts_after_four_nodes():
    table = linked_list(10)
    got, truncated = snapshot_reachable([Ref(0, 0)], table, 100)
    assert truncated is True
    assert sorted(got) == [0, 1, 2, 3], (100 // NODE_BYTES)
    # the ref out of the cut is severed, not dangling
    assert got[3][1] is None
    # originals are untouched
    assert table[3][1] == Ref(4, 0)


def test_snapshot_zero_keep_still_truncates():
    table = linked_list(3)
    got, truncated = snapshot_reachable([Ref(0, 0)], table, NODE_BYTES - 1)
    assert got == {} and truncated is True


def test_snapshot_monotone_in_budget():
    table = linked_list(10)
    prev = set()
    for budget in range(8, 11 * NODE_BYTES, 4):
        got, _ = snapshot_reachable([Ref(0, 0)], table, budget)
        assert prev <= set(got), budget
        prev = set(got)
    assert prev == set(range(10))


def reference_byte_size(v):
    size, todo = 0, [v]
    while todo:
        v = todo.pop()
        if v is None or type(v) in (int, float, Ref):
            size += 8
        elif type(v) is bytes:
            size += 8 + len(v)
        elif type(v) is tuple:
            size += 8
            todo += v
        elif type(v) is Record:
            size += 8
            todo += v.fields.values()
        else:
            raise TypeError(f"not a runtime value: {v!r}")
    return size


def reference_snapshot(roots, table, max_bytes):
    """snapshot_reachable as two walks per segment element, one for its
    byte size and one for its refs, at every slot that holds it."""
    queue, seen = [], set()

    def discover(v):
        refs, todo = [], [v]
        while todo:
            v = todo.pop()
            if type(v) is Ref:
                refs.append(v)
            elif type(v) is tuple:
                todo += reversed(v)
            elif type(v) is Record:
                todo += reversed(v.fields.values())
        for r in refs:
            if r.seg not in seen and r.seg in table:
                seen.add(r.seg)
                queue.append(r.seg)

    for v in roots:
        discover(v)
    kept, used, qi = {}, 0, 0
    while qi < len(queue):
        seg = table[queue[qi]]
        used += 8 + sum(reference_byte_size(x) for x in seg)
        if used > max_bytes:
            for k in kept.values():
                k[:] = [sever(x, kept) for x in k]
            return kept, True
        kept[queue[qi]] = list(seg)
        for x in seg:
            discover(x)
        qi += 1
    return kept, False


def random_heap(rng, n_segs):
    """Roots and a segment table whose refs form cycles, point at
    segments that are not there, and share arrays and records."""
    shared = []

    def value(depth):
        k = rng.randrange(10)
        if k == 0:
            return None
        if k == 1:
            return rng.randrange(1000) / 8
        if k == 2:
            return rng.randbytes(rng.randrange(6))
        if k in (3, 4):
            return Ref(rng.randrange(n_segs + 2), rng.randrange(2))
        if k == 5 and shared:
            return rng.choice(shared)
        if k in (6, 7) and depth < 4:
            items = [value(depth + 1) for _ in range(rng.randrange(4))]
            v = (tuple(items) if k == 6
                 else Record("R", {f"f{i}": x for i, x in enumerate(items)}))
            shared.append(v)
            return v
        return rng.randint(-9, 9)

    table = {sid: [value(0) for _ in range(rng.randrange(7))]
             for sid in range(n_segs)}
    return [value(0) for _ in range(3)] + [Ref(0, 0)], table


def deep_heap(depth):
    v = Record("Leaf", {"next": Ref(1, 0)})
    for i in range(depth):
        v = (i, v, Ref(2, 0)) if i % 2 else Record("N", {"a": v, "b": b"x"})
    return [Ref(0, 0)], {0: [v, v], 1: [v], 2: [7]}


def shared_heaps():
    rec = Record("Num", {"v": 3, "next": Ref(1, 0)})
    pair = (Ref(2, 0), b"ab", (1.5, None))
    yield [Ref(0, 0)], {0: [rec] * 1_000, 1: [rec, 4]}
    yield [Ref(0, 0), pair], {0: [pair, 1], 1: [pair, Ref(0, 0)],
                              2: [pair, Ref(1, 0)]}
    yield [Ref(0, 0)], {0: [Ref(0, 0), Ref(1, 0)], 1: [Ref(0, 0), Ref(9, 0)]}
    yield deep_heap(2_000)


def assert_same_snapshot(got, want):
    assert got[1] == want[1]
    assert list(got[0]) == list(want[0])    # breadth-first order kept
    for sid, seg in want[0].items():
        assert len(got[0][sid]) == len(seg)
        assert all(equal(x, y) for x, y in zip(got[0][sid], seg)), sid


def test_snapshot_matches_the_two_walk_reference():
    rng = Rng(0x5AFE)
    heaps = list(shared_heaps()) + [random_heap(rng, rng.randint(1, 12))
                                    for _ in range(150)]
    for roots, table in heaps:
        whole, truncated = reference_snapshot(roots, table, 1 << 60)
        assert not truncated
        total = sum(8 + sum(reference_byte_size(x) for x in seg)
                    for seg in whole.values())
        for budget in {*range(max(1, total - 16), total + 1),
                       *range(1, total, max(1, total // 10))}:
            assert_same_snapshot(snapshot_reachable(roots, table, budget),
                                 reference_snapshot(roots, table, budget))
    with pytest.raises(TypeError):
        snapshot_reachable([Ref(0, 0)], {0: [(1, True)]}, 100)


def test_snapshot_walks_a_value_once_per_call(monkeypatch):
    walks = []
    walk = values._size_and_refs

    def counted(v, sizes):
        walks.append(v)
        return walk(v, sizes)
    monkeypatch.setattr(values, "_size_and_refs", counted)
    rec = Record("Num", {"v": 3, "next": Ref(1, 0)})
    table = {0: [rec] * 10_000, 1: [5]}
    total = 8 + 10_000 * 24 + 16    # each slot counts the record's 24 bytes
    for _ in range(2):
        assert snapshot_reachable([Ref(0, 0)], table, total) == (
            {0: [rec] * 10_000, 1: [5]}, False)
    severed = Record("Num", {"v": 3, "next": None})
    assert snapshot_reachable([Ref(0, 0)], table, total - 1) == (
        {0: [severed] * 10_000}, True)
    assert sum(v is rec for v in walks) == 3     # once per call


class CountingMemo(dict):
    """A memo that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def doubled(n, leaf):
    """What `a = [leaf]; a = [a, a]` n times makes: 2**n paths to the
    leaf through n + 1 distinct arrays."""
    a = (leaf,)
    for _ in range(n):
        a = (a, a)
    return a


def test_a_shared_part_is_walked_and_severed_once():
    a = doubled(20, Ref(1, 0))
    sizes = CountingMemo()
    size, refs = values._size_and_refs(a, sizes)
    assert size == 2**20 * 16 + (2**20 - 1) * 8     # every path counts
    assert refs == [Ref(1, 0)]
    assert len(sizes.stores) == 21 and set(sizes.stores.values()) == {1}
    copies = CountingMemo()
    cut = sever(a, set(), copies)
    assert len(copies.stores) == 21 and set(copies.stores.values()) == {1}
    for _ in range(20):
        assert cut[0] is cut[1] and cut is not a
        cut, a = cut[0], a[0]
    assert cut == (None,)


DOUBLING = """
fn f(a: [int]) -> int { return len(a); }
fn main() -> int {
    let a = [alloc_array(2, 7)];
    let i = 0;
    while (i < 40) { a = [a, a]; i = i + 1; }
    return f(a);
}
"""


@pytest.mark.parametrize("budget", [65536, 8])
def test_a_traced_run_of_a_value_with_2_to_the_40_paths_returns(budget):
    result = run_with_tracing(parse(DOUBLING), mk_input(),
                              RunOptions(max_dump_bytes=budget))
    assert result.status.kind == "exit" and result.status.code == 2
    [carve] = result.trace
    root = carve.context.roots["arg[0]"]
    assert carve.context.truncated == (budget == 8)
    assert list(carve.context.segments.values()) == (
        [] if budget == 8 else [[7, 7]])
    for _ in range(40):
        assert root[0] is root[1]
        root = root[0]
    assert root == ((None,) if budget == 8 else (Ref(root[0].seg, 0),))


def carves_of_the_dc_bridge_pool(monkeypatch):
    """Every carve the dc-bridge campaign at rng seed 7 pools, in the
    order each function's pool holds them, functions by name."""
    pools = []
    report = campaign_module._Campaign.report

    def kept_pool(self, *args):
        pools.append(self.fns)
        return report(self, *args)
    monkeypatch.setattr(campaign_module._Campaign, "report", kept_pool)
    program, name = resolve_program("mini_dc")
    run_campaign(program, resolve_seeds(None, name),
                 RunConfig(mode="bridge", rng_seed=7,
                           deterministic_clock=600_000),
                 program_name=name)
    return [c for st in pools[0].values() for c in st.carves]


# sha256 over encode_carve of every carve below, computed before the
# snapshot walk was rewritten: what a carve holds, not only how many.
CARVE_CONTENT_DIGEST = (
    103, 140, "6f49e870e13c6412374b42dab6db6a08dd4627184741f30f71211d458e7d2632")


def test_carve_contents_match_golden_digest(monkeypatch):
    carves = []
    for name in SUBJECT_NAMES:
        program, _ = resolve_program(name)
        for i, s in enumerate(resolve_seeds(None, name)):
            result = run_with_tracing(program, s)
            carves += carve_with_stats(result, origin=f"{name}-{i}")[0]
    program, _ = resolve_program("mini_dc")
    truncated = 0
    for budget in (64, 300, 1_000):
        for i, s in enumerate(resolve_seeds(None, "mini_dc")):
            result = run_with_tracing(program, s,
                                      RunOptions(max_dump_bytes=budget))
            truncated += result.carve_stats.truncated
            carves += carve_with_stats(result, origin=f"{budget}-{i}")[0]
    pool = carves_of_the_dc_bridge_pool(monkeypatch)
    assert truncated and pool
    h = hashlib.sha256()
    for c in carves + pool:
        h.update(json.dumps(trace.encode_carve(c), sort_keys=True).encode())
    assert (len(carves), len(pool), h.hexdigest()) == CARVE_CONTENT_DIGEST


def test_truncated_context_severs_root_refs():
    prog = load_subject("keycheck")
    result = run_with_tracing(prog, mk_input([b"admin", b"pw"]),
                              RunOptions(max_dump_bytes=8))
    carves = carve_with_stats(result)[0]
    assert carves, "expected carves even under a tiny budget"
    for c in carves:
        assert c.context.truncated is True
        assert c.context.roots["global:db"] is None
        assert c.context.segments == {}


def test_context_is_taken_at_call_time_not_at_return():
    prog = parse("""
global cells: ref int = alloc_array(2, 0);
fn bump(r: ref int) -> int {
    let before = r[0];
    r[0] = before + 41;
    cells[1] = 9;
    return before;
}
fn main() -> int {
    cells[0] = 1;
    return bump(cells);
}
""")
    result = run_with_tracing(prog, mk_input())
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "bump")
    ref = carved.context.roots["arg[0]"]
    assert carved.context.segments[ref.seg] == [1, 0]
    assert replay(prog, carved).return_value == 1


# ------------------------------------------------------------ context model

def test_leaves_enumeration_order_and_paths():
    ctx = Context(
        roots={
            "arg[0]": b"abc",
            "global:g": Ref(0, 0),
        },
        segments={
            0: [
                Record("P", {"a": 1, "b": (2.5, b"zz")}),
                Record("P", {"a": 3, "b": (b"q",)}),
            ],
        },
        truncated=False,
    )
    assert list(ctx.leaves()) == [
        ("arg[0]", b"abc"),
        ("global:g[0].a", 1),
        ("global:g[0].b[0]", 2.5),
        ("global:g[0].b[1]", b"zz"),
        ("global:g[1].a", 3),
        ("global:g[1].b[0]", b"q"),
    ]


def test_leaves_deduplicate_aliased_segments():
    ctx = Context(
        roots={"global:a": Ref(0, 0), "global:b": Ref(0, 0)},
        segments={0: [7]},
        truncated=False,
    )
    assert list(ctx.leaves()) == [("global:a[0]", 7)]


def test_leaves_terminate_on_cycles():
    ctx = Context(
        roots={"global:a": Ref(0, 0)},
        segments={0: [Ref(0, 0), 5]},
        truncated=False,
    )
    assert list(ctx.leaves()) == [("global:a[1]", 5)]


def test_resolve_follows_paths():
    ctx = Context(
        roots={"arg[0]": Ref(1, 0), "global:g": Ref(1, 0)},
        segments={1: [Record("P", {"a": (10, 20)})]},
        truncated=False,
    )
    assert ctx.resolve("arg[0][0].a[1]") == 20
    # Only the paths the walk writes: arg[0] names the segment first, so
    # neither a second ref to it nor another spelling names a place.
    for path in ("arg[1]", "arg[0][0].missing", "global:g[0].a[1]", "arg[0][00].a[1]"):
        with pytest.raises(KeyError) as e:
            ctx.resolve(path)
        assert e.value.args == (path,)


def test_walk_keeps_each_place_with_its_holder_and_steps():
    # A ref into the middle of a segment names its elements from its
    # offset; a later ref to the same segment names nothing.
    ctx = Context(
        roots={"arg[0]": Ref(1, 1), "global:g": Ref(1, 0)},
        segments={1: [9, (Record("P", {"a": (1, 2)}),), 4]},
        truncated=False,
    )
    assert ctx.walk() == {
        "arg[0]": (Ref(1, 1), 0, ()),
        "arg[0][0]": ((Record("P", {"a": (1, 2)}),), (1, 1), ()),
        "arg[0][0][0]": (Record("P", {"a": (1, 2)}), (1, 1), (0,)),
        "arg[0][0][0].a": ((1, 2), (1, 1), (0, "a")),
        "arg[0][0][0].a[0]": (1, (1, 1), (0, "a", 0)),
        "arg[0][0][0].a[1]": (2, (1, 1), (0, "a", 1)),
        "arg[0][1]": (4, (1, 2), ()),
        "global:g": (Ref(1, 0), "g", ()),
    }
    assert list(ctx.leaves()) == [("arg[0][0][0].a[0]", 1), ("arg[0][0][0].a[1]", 2),
                                  ("arg[0][1]", 4)]
    args, (globals_, segments) = ctx.world({"arg[0][0][0].a[1]": 7, "arg[0][1]": 5})
    assert (args, globals_) == ([Ref(1, 1)], {"g": Ref(1, 0)})
    assert segments == {1: [9, (Record("P", {"a": (1, 7)}),), 5]}
    assert ctx.segments == {1: [9, (Record("P", {"a": (1, 2)}),), 4]}


def test_context_world_isolates_replays(subjects):
    prog = subjects["keycheck"]
    result = run_with_tracing(prog, mk_input([b"admin", b"opensesame"]))
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_user")
    before = dataclasses.replace(carved)
    first = replay(prog, carved)
    second = replay(prog, carved)
    assert carved == before
    assert first.coverage == second.coverage
    assert first.status == second.status


# ------------------------------------------------------------ persistence

def test_keycheck_snapshot_round_trip(tmp_path, subjects):
    prog = subjects["keycheck"]
    result = run_with_tracing(prog, mk_input([b"d7wfv", b"xczZ7tz"]))
    carves = carve_with_stats(result, origin="seed-0")[0]
    target = next(c for c in carves if c.start[0] == "check_user")
    assert target.context.roots["arg[0]"] == b"d7wfv"
    names = [
        seg[0].fields["name"]
        for seg in target.context.segments.values()
        if seg and isinstance(seg[0], Record) and seg[0].rtype == "User"
    ]
    assert names and names[0] == b"admin"

    path = tmp_path / "c.snap"
    save_snapshot(target, path)
    assert load_snapshot(path) == target


def test_random_snapshot_round_trips(tmp_path):
    rng = Rng(0xD1CE)
    seen = 0
    for name in SUBJECT_NAMES:
        prog = load_subject(name)
        for i in range(4):
            result = run_with_tracing(prog, random_input_for(name, rng))
            carves = carve_with_stats(result, origin=f"{name}-{i}")[0]
            for j, carved in enumerate(carves):
                path = tmp_path / f"{name}-{i}-{j}.snap"
                save_snapshot(carved, path)
                assert load_snapshot(path) == carved
                seen += 1
    assert seen >= 20


def test_floats_and_arrays_round_trip_in_roots_and_segments(tmp_path):
    carved = trace.CarvedTest(
        ("f", 1), Context({"arg[0]": (0.1, (b"ab", -7)), "arg[1]": Ref(0, 0),
                           "global:g": -2.5e300},
                          {0: [(1.5, ()), 0.0, (Ref(0, 2),)]}, False),
        "test", frozenset())
    path = tmp_path / "c.snap"
    save_snapshot(carved, path)
    got = load_snapshot(path)
    assert got == carved
    assert [type(x) for x in got.context.segments[0]] == [tuple, float, tuple]


@pytest.mark.parametrize("roots,segments,ref", [
    ({"arg[0]": Ref(1, 0)}, {0: [7]}, "Ref(1, 0)"),
    ({"arg[0]": (Ref(0, 2),)}, {0: [7]}, "Ref(0, 2)"),
    ({"arg[0]": Ref(0, 0)}, {0: [Record("R", {"a": (Ref(0, 1), Ref(3, 0))})]}, "Ref(3, 0)"),
])
def test_a_ref_outside_the_segment_table_does_not_load(tmp_path, roots, segments, ref):
    path = tmp_path / "c.snap"
    save_snapshot(trace.CarvedTest(("f", 1), Context(roots, segments, False),
                                   "test", frozenset()), path)
    with pytest.raises(FormatError, match=rf"^{re.escape(ref)} lies outside the segment table$"):
        load_snapshot(path)


@pytest.mark.parametrize("name", ["1g", "g-h", "\u00e9", ""])
def test_a_global_root_must_be_named_as_the_lexer_names_it(tmp_path, name):
    path = tmp_path / "c.snap"
    save_snapshot(trace.CarvedTest(("f", 1), Context({f"global:{name}": 1}, {}, False),
                                   "test", frozenset()), path)
    with pytest.raises(FormatError, match="roots must be arg"):
        load_snapshot(path)


def small_snapshot(tmp_path):
    prog = parse("""
fn f(x: int) -> int { return x; }
fn main() -> int { return f(3); }
""")
    result = run_with_tracing(prog, mk_input())
    carves, _ = carve_with_stats(result)
    path = tmp_path / "c.snap"
    save_snapshot(carves[0], path)
    return path


def test_snapshot_version_mismatch(tmp_path):
    path = small_snapshot(tmp_path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_snapshot(path)


def with_coverage(entry):
    def edit(doc):
        doc["observed_coverage"] = [entry]
        return json.dumps(doc)
    return edit


def with_ref(off, seg=0):
    def edit(doc):
        return json.dumps({**doc, "roots": [
            ["arg[0]", {"t": "ref", "seg": seg, "off": off}]],
            "segments": {"0": [{"t": "int", "v": 7}] * 6}})
    return edit


def with_leaf(encoded):
    def edit(doc):
        return json.dumps({**doc, "roots": [["arg[0]", encoded]]})
    return edit


def with_roots(paths):
    def edit(doc):
        return json.dumps({**doc, "roots": [[p, {"t": "int", "v": 1}] for p in paths]})
    return edit


def with_segment_id(sid, seg):
    def edit(doc):
        return json.dumps({**doc, "roots": [["arg[0]", {"t": "ref", "seg": seg, "off": 0}]],
                           "segments": {sid: [{"t": "int", "v": 7}]}})
    return edit


def test_int_leaves_at_the_64_bit_bounds_load(tmp_path):
    path = small_snapshot(tmp_path)
    doc = json.loads(path.read_text())
    for v in (INT64_MIN, INT64_MAX):
        path.write_text(with_leaf({"t": "int", "v": v})(doc))
        assert load_snapshot(path).context.roots["arg[0]"] == v


def test_ref_at_its_segment_end_loads(tmp_path):
    # slice(a, len(a), 0) makes such a ref; it reads nothing.
    path = small_snapshot(tmp_path)
    path.write_text(with_ref(6)(json.loads(path.read_text())))
    assert load_snapshot(path).context.roots["arg[0]"] == Ref(0, 6)


# A version-1 segment: its elements and a type, length and origin.
V1_SEGMENTS = {"0": {"type": "int", "len": 1, "elems": [{"t": "int", "v": 7}],
                     "origin": "heap"}}

# Each rewrites a valid snapshot document into a malformed file's text.
MALFORMED_SNAPSHOTS = {
    "json-list": lambda doc: "[1]",
    "version-only": lambda doc: json.dumps({"version": SNAPSHOT_VERSION}),
    "version-1": lambda doc: json.dumps(
        {**doc, "version": 1, "segments": V1_SEGMENTS}),
    "segment-not-a-list": lambda doc: json.dumps(
        {**doc, "segments": V1_SEGMENTS}),
    # Python's negative indexing would read from the segment's end.
    "ref-offset-negative": with_ref(-5),
    "ref-offset-minus-one": with_ref(-1),
    # len() of it would be negative.
    "ref-offset-past-end": with_ref(7),
    # It would crash replay as a dangling reference.
    "ref-to-missing-segment": with_ref(0, seg=1),
    "not-json": lambda doc: "carve of f, call 0\n",
    "non-ascii": lambda doc: json.dumps(doc, ensure_ascii=False) + "\u00e9",
    "goal-without-outcome": with_coverage("f:1"),
    "goal-with-text-stmt": with_coverage("f:one:then"),
    "goal-not-a-string": with_coverage(7),
    "roots-not-pairs": lambda doc: json.dumps({**doc, "roots": 3}),
    "bad-base64-leaf": lambda doc: json.dumps(
        {**doc, "roots": [["arg[0]", {"t": "bytes", "v": "abc"}]]}),
    # Non-alphabet characters: a lax decoder drops them ("Y!WJj" -> b"abc").
    "base64-leaf-with-junk": lambda doc: json.dumps(
        {**doc, "roots": [["arg[0]", {"t": "bytes", "v": "Y!WJj"}]]}),
    "base64-leaf-all-junk": lambda doc: json.dumps(
        {**doc, "roots": [["arg[0]", {"t": "bytes", "v": "!"}]]}),
    # No run of the language holds an int outside 64 bits.
    "int-above-int64": with_leaf({"t": "int", "v": 2 ** 70}),
    "int-below-int64": with_leaf({"t": "int", "v": INT64_MIN - 1}),
    # int() would read each of these as a number.
    "int-as-float": with_leaf({"t": "int", "v": 1.5}),
    "int-as-bool": with_leaf({"t": "int", "v": True}),
    "int-as-string": with_leaf({"t": "int", "v": "12"}),
    "ref-offset-float": with_ref(0.9),
    "ref-offset-bool": with_ref(True),
    "ref-seg-string": with_ref(0, seg="0"),
    "record-name-not-a-string": with_leaf(
        {"t": "record", "name": 1, "fields": []}),
    "record-field-name-not-a-string": with_leaf(
        {"t": "record", "name": "R", "fields": [[1, {"t": "int", "v": 1}]]}),
    # print writes names as ASCII: its UnicodeEncodeError would end replay.
    "record-field-name-not-ascii": with_leaf(
        {"t": "record", "name": "R", "fields": [["\u00e9", {"t": "int", "v": 1}]]}),
    "record-name-not-an-identifier": with_leaf(
        {"t": "record", "name": "1R", "fields": []}),
    # Context.world() would hand call_function only arg[0].
    "roots-skip-an-argument": with_roots(["arg[0]", "arg[2]"]),
    "root-not-a-path": with_roots(["arg[0]", "foo"]),
    "argument-after-a-global": with_roots(["global:g", "arg[0]"]),
    "root-twice": with_roots(["arg[0]", "global:g", "global:g"]),
    "truncated-as-string": lambda doc: json.dumps({**doc, "truncated": "no"}),
    "truncated-as-int": lambda doc: json.dumps({**doc, "truncated": 0}),
    "call-index-as-string": lambda doc: json.dumps(
        {**doc, "start": {**doc["start"], "call_index": "3"}}),
    "call-index-as-float": lambda doc: json.dumps(
        {**doc, "start": {**doc["start"], "call_index": 3.0}}),
    # int() would read these as segments 10 and 2.
    "segment-id-with-underscore": with_segment_id("1_0", 10),
    "segment-id-with-spaces": with_segment_id(" 2 ", 2),
    "float-as-bool": with_leaf({"t": "float", "v": True}),
    "float-as-number": with_leaf({"t": "float", "v": 1.5}),
    "float-not-a-repr": with_leaf({"t": "float", "v": "1_0"}),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_is_a_format_error(tmp_path, kind):
    path = small_snapshot(tmp_path)
    doc = json.loads(path.read_text())
    path.write_text(MALFORMED_SNAPSHOTS[kind](doc), encoding="utf-8")
    with pytest.raises(FormatError):
        load_snapshot(path)
