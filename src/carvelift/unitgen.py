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
So a fuzz round runs each distinct (path, value) draw once.  A draw that
repeats an earlier one of the same round is charged that execution's
steps without running it; its coverage and crash signature are already
known, so it could never have been kept.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from itertools import cycle, islice

from .carving import CarvedTest, Context
from .errors import ToolError
from .lang.ast import Program
from .lang.goals import BranchGoal
from .mapping import Mapping, leaf_bytes
from .rng import Rng
from .vm.interp import RunOptions, RunStatus, TypeMismatch, call_function
from .vm.values import INT64_MAX, INT64_MIN, wrap64


class NoParameters(ToolError):
    """The mapping marked no leaf as a parameter; skip this carve."""


class UnknownParameter(ToolError):
    """An assignment names a path the context does not contain."""


@dataclass      # one per unit execution: frozen would double its cost
class ParamAssignment:
    assignments: dict[str, object]
    provenance: str


@dataclass
class UnitOutcome:
    assignment: ParamAssignment
    status: RunStatus
    new_goals: frozenset[BranchGoal]


@dataclass
class FuzzStats:
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
        if not v:
            return
        while True:
            i = rng.randrange(len(v))
            flipped = v[i] ^ (1 << rng.randrange(8))
            yield "bytes-bitflip", v[:i] + bytes([flipped]) + v[i + 1:]

    def rand_bytes():
        while True:
            yield "bytes-random", rng.randbytes(rng.choice(lengths))

    def rand_ascii():       # rng.randint(32, 126) is 32 + rng.randrange(95)
        while True:
            n = rng.choice(lengths)
            yield "bytes-ascii", bytes([32 + rng.randrange(95) for _ in range(n)])

    def nul_runs():
        while True:
            yield "bytes-nul", b"\x00" * rng.choice(lengths)

    def ff_runs():
        while True:
            yield "bytes-ff", b"\xff" * rng.choice(lengths)

    def repeats():
        if not v:
            return
        while True:
            a = rng.randrange(len(v))
            b = a + 1 + rng.randrange(len(v) - a)
            yield "bytes-repeat", v[a:b] * rng.randint(2, 4)

    yield from _round_robin([
        harvested(), bitflips(), rand_bytes(), rand_ascii(),
        nul_runs(), ff_runs(), repeats(),
    ])


# ---------------------------------------------------------------- assignment

def apply_assignment(c: CarvedTest, a: ParamAssignment):
    """A fresh (args, world) equal to the carve except at assigned leaves.

    Each assigned value must be of its leaf's kind, bytes or int; ints
    wrap to 64 bits.
    """
    values = {}
    for path in sorted(a.assignments):
        new_value = a.assignments[path]
        try:
            old = c.context.resolve(path)
        except KeyError:
            raise UnknownParameter(path) from None
        if isinstance(old, bytes):
            if not isinstance(new_value, bytes):
                raise TypeMismatch(f"{path} holds bytes, assignment is not")
        elif isinstance(old, int):
            if not isinstance(new_value, int) or isinstance(new_value, bool):
                raise TypeMismatch(f"{path} holds an int, assignment is not")
            new_value = wrap64(new_value)
        else:
            raise TypeMismatch(f"{path}: only bytes and int leaves take assignments")
        values[path] = new_value
    return c.context.world(values)


# ---------------------------------------------------------------- fuzzing

def fuzz_unit_with_stats(program: Program, c: CarvedTest, m: Mapping,
                         budget: int, known: Set[BranchGoal], rng: Rng,
                         opts: RunOptions = RunOptions()):
    """Run up to `budget` single-parameter variations of a carved call.

    `known` is the goal set already discovered; it is only read.  Only
    executions that crash or reach beyond it are returned, as
    (winners, FuzzStats).  Each returned crash signature appears once
    per batch.  Unit runs get a tenth of the system step budget.

    The round runs each distinct (path, value) draw once and answers a
    repeat from a memo that lives for this call.  `executions` counts
    the `budget` draws and `steps` charges every draw, repeats included,
    so both are what running every draw would give; `wall_times_s` has
    one entry per execution that ran.
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

    working = set(known)
    fn, unit_opts = c.start[0], opts.unit()
    stats = FuzzStats(executions=budget)
    outcomes: list[UnitOutcome] = []
    crash_signatures: set[tuple] = set()
    ran: dict[tuple, int] = {}      # (path, value) -> steps, this round only
    for k in range(budget):
        path, gen = streams[k % len(streams)]
        label, value = next(gen)
        steps = ran.get((path, value))
        if steps is not None:       # a repeat: it could not be kept
            stats.steps += steps
            continue
        assignment = ParamAssignment({path: value}, label)
        args, world = apply_assignment(c, assignment)
        r = call_function(program, fn, args, world, unit_opts)
        ran[path, value] = r.steps
        stats.steps += r.steps
        stats.wall_times_s.append(r.wall_time_s)

        new_goals = r.coverage - working    # a frozenset, as r.coverage is
        keep = bool(new_goals)
        if keep:
            working |= new_goals
        if r.status.is_crash():
            signature = (r.status.crash_kind, r.status.crash_fn,
                         r.status.crash_stmt)
            if signature not in crash_signatures:
                crash_signatures.add(signature)
                keep = True
        if keep:
            outcomes.append(UnitOutcome(assignment, r.status, new_goals))
    return outcomes, stats
