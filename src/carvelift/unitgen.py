"""Parameterized unit testing over carved contexts.

A carve plus its mapping gives a unit test with holes: the mapped leaf
paths.  The fuzzer plugs one new value into one hole per execution,
leaving every other leaf exactly as carved, and keeps the executions
that crash or that cover goals nobody has covered yet.

Value streams interleave their generator families round-robin, so the
cheap high-yield families (the int constants, values harvested from the
carved context itself) land within the first few executions even under
tiny budgets.  Harvesting is the stand-in for a constraint solver here:
the interesting comparison constants are usually sitting in the context,
carved out of the program's own state.

A unit execution is a pure function of the carve, the assigned path and
the value: the VM is deterministic and the carved context never changes.
So each distinct (path, value) draw of a carved call runs once: a
campaign keeps one memo per carved function and context, across all
the rounds of the carves that share them, and a draw found there is
charged that execution's steps and judged on its remembered status and
coverage without running again.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from itertools import cycle, islice

from .errors import ToolError
from .lang.ast import Program
from .lang.goals import BranchGoal
from .mapping import Mapping, leaf_bytes
from .rng import Rng
from .sysgen import bit_flip, span
from .vm.interp import RunOptions, RunStatus, call_function
from .vm.trace import CarvedTest, Context
from .vm.values import INT64_MAX, INT64_MIN, wrap64


class NoParameters(ToolError):
    """The mapping marked no leaf as a parameter; skip this carve."""


class UnknownParameter(ToolError):
    """An assignment names a path the context does not contain."""


@dataclass      # one per unit execution: frozen would double its cost
class ParamAssignment:
    """The values a unit execution gives a carve's parameters, and their mutator."""
    assignments: dict[str, object]
    provenance: str


@dataclass
class UnitOutcome:
    """A unit execution worth lifting, for new goals or a new crash."""
    assignment: ParamAssignment
    status: RunStatus
    new_goals: frozenset[BranchGoal]


@dataclass
class FuzzStats:
    """A fuzzing round's executions and steps, and the wall time of each it ran."""
    executions: int = 0
    steps: int = 0
    wall_times_s: list[float] = field(default_factory=list)


# ---------------------------------------------------------------- streams

def _round_robin(streams: list):
    """The streams' values in turn, each stream dropped once it ends (the
    `roundrobin` recipe of the itertools docs)."""
    turns = iter(streams)
    for active in range(len(streams), 0, -1):
        turns = cycle(islice(turns, active))
        yield from map(next, turns)


def int_mutations(v: int, rng: Rng):
    """Labeled stream of replacement ints: constants, bit flips, random."""

    def constants():
        yield "int-constant", 0
        yield "int-constant", INT64_MAX
        yield "int-constant", INT64_MIN

    def bitflips():
        while True:
            yield "int-bitflip", wrap64(v ^ (1 << rng.randrange(64)))

    def randoms():
        while True:
            yield "int-random", wrap64(rng.next_u64())

    yield from _round_robin([constants(), bitflips(), randoms()])


def bytes_mutations(v: bytes, ctx: Context, rng: Rng):
    """Labeled stream of replacement byte strings.

    Families: values harvested from the context (each once), bit flips
    of v, random bytes, random printable ASCII, NUL runs, 0xFF runs, and
    repeated substrings of v.  Lengths orbit the original value's.
    """
    lengths = sorted({n for n in (1, len(v), len(v) - 1, len(v) + 1, 2 * len(v))
                      if n >= 1})

    def harvested():
        seen = set()
        for _, leaf in ctx.leaves():
            data = leaf_bytes(leaf)
            if data is not None and data not in seen:
                seen.add(data)
                yield "harvested", data

    def bitflips():
        while v:
            yield "bytes-bitflip", bit_flip(v, rng)

    def rand_bytes():
        while True:
            yield "bytes-random", rng.randbytes(rng.choice(lengths))

    def rand_ascii():
        while True:
            yield "bytes-ascii", rng.printable(rng.choice(lengths))

    def nul_runs():
        while True:
            yield "bytes-nul", b"\x00" * rng.choice(lengths)

    def ff_runs():
        while True:
            yield "bytes-ff", b"\xff" * rng.choice(lengths)

    def repeats():
        while v:
            a, b = span(rng, len(v))
            yield "bytes-repeat", v[a:b] * rng.randint(2, 4)

    yield from _round_robin([
        harvested(), bitflips(), rand_bytes(), rand_ascii(),
        nul_runs(), ff_runs(), repeats(),
    ])


# ---------------------------------------------------------------- assignment

def apply_assignment(c: CarvedTest, a: ParamAssignment):
    """The carve's `Context.world` with the assigned leaves replaced;
    UnknownParameter for a path the context does not contain."""
    try:
        return c.context.world(a.assignments)
    except KeyError as exc:
        raise UnknownParameter(exc.args[0]) from None


# ---------------------------------------------------------------- fuzzing

_NOTHING: frozenset[BranchGoal] = frozenset()


def fuzz_unit_with_stats(program: Program, c: CarvedTest, m: Mapping,
                         budget: int, known: Set[BranchGoal], rng: Rng,
                         opts: RunOptions = RunOptions(), memo: dict | None = None):
    """Run up to `budget` single-parameter variations of a carved call.

    `known` is the goal set already discovered; it is only read.  Only
    executions that crash or reach beyond it are returned, as
    (winners, FuzzStats).  Each returned crash signature appears once
    per batch.  Unit runs get a tenth of the system step budget.

    Each distinct (path, value) draw runs once per `memo`, which maps a
    draw to its (steps, status, coverage).  A campaign passes one memo
    per carved function and context, kept across rounds; without one,
    the memo lives for this call.  A draw found there is not run again: it is
    charged its steps and judged against `known` and this round's
    winners exactly as a run would be.  `executions` counts the `budget`
    draws and `steps` charges every draw, repeats included, so both are
    what running every draw would give; `wall_times_s` has one entry per
    execution that ran.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    params = m.parameters
    if not params:
        raise NoParameters(f"{c.start[0]}: no leaf maps into the input")

    streams = []
    for path in params:
        leaf = c.context.resolve(path)
        child = rng.split()
        if isinstance(leaf, bytes):
            streams.append((path, bytes_mutations(leaf, c.context, child)))
        else:
            streams.append((path, int_mutations(leaf, child)))

    if memo is None:
        memo = {}
    working = set(known)
    fn, unit_opts = c.start[0], opts.unit()
    walls: list[float] = []
    outcomes: list[UnitOutcome] = []
    crash_signatures: set[tuple] = set()
    total = 0
    for k in range(budget):
        path, gen = streams[k % len(streams)]
        label, value = next(gen)
        seen = memo.get((path, value))
        if seen is None:
            args, world = apply_assignment(c, ParamAssignment({path: value}, label))
            r = call_function(program, fn, args, world, unit_opts)
            memo[path, value] = seen = r.steps, r.status, r.coverage
            walls.append(r.wall_time_s)
        steps, status, coverage = seen
        total += steps
        crashed = status.kind == "crash"
        if coverage <= working:
            if not crashed:
                continue
            new_goals = _NOTHING
        else:
            new_goals = coverage - working  # a frozenset, as coverage is
            working |= new_goals
        if crashed:
            signature = (status.crash_kind, status.crash_fn, status.crash_stmt)
            if signature not in crash_signatures:
                crash_signatures.add(signature)
            elif not new_goals:
                continue
        outcomes.append(UnitOutcome(ParamAssignment({path: value}, label), status, new_goals))
    return outcomes, FuzzStats(budget, total, walls)
