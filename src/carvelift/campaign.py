"""Campaign orchestration.

One loop drives both modes.  It runs the seeds, then, while goals
stay uncovered and budget is left, either fuzzes a selected carve or
runs a batch of mutated system inputs.  Bridge mode adds the bridge: a
generated batch after the seeds, system runs traced and carved, and
rounds that pick the carve whose function has the most uncovered branch
goals, fuzz it at unit level and lift the winners back to validated
system inputs.  The system-only baseline is the same loop with the
bridge off: no generated batch and no selection, so every round is a
batch of mutated inputs, run untraced.

Two guards keep the loop from stalling on unit-only discoveries: goals
whose lifts validated false-positive are not chased again, and a
function whose rounds go winnerless FUTILE_ROUNDS times in a row drops
out of selection, handing the budget back to system-level batches.
Once no function can be selected any more, bridge runs stop being
traced and carved: nothing carved after that point could be fuzzed.

The campaign spends its budget on one of two clocks: wall time for real
runs, or an exact count of VM steps (every system and unit execution
included) for reproducible runs.  `_Campaign.charge` charges every
system execution.  The VM is deterministic, so a system input the
campaign has already run is not run again untraced: the repeat is
charged the steps of its first run.  Nor is one already traced run
traced again: the repeat is charged that run's steps and pools its
carves again, stamped with the repeat's origin.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Set
from itertools import count
from dataclasses import asdict, dataclass, field

from .carving import carve_with_stats
from .errors import ConfigError
from .lang.ast import ENTRY
from .lang.goals import BranchGoal, enumerate_goals, goals_in_function
from .lifting import lift, validate
from .mapping import MIN_MATCH_LEN, build_mapping
from .reporting import (
    REPORT_VERSION,
    CampaignReport,
    EffectiveInput,
    FunctionRow,
    LiftStats,
    SpeedupStats,
)
from .rng import Rng
from .sysgen import generate_batch, mutate_input, write_corpus
from .unitgen import fuzz_unit_with_stats
from .vm.interp import (
    DEFAULT_MAX_DUMP_BYTES, DEFAULT_STEP_LIMIT, RunOptions, RunResult, compiled,
    run_system, run_with_tracing,
)
from .vm.trace import CarvedTest, CarveStats

MODES = ("bridge", "system-only")
FALLBACK_BATCH = 10
# A function whose fuzz rounds come back winnerless this many times in a
# row stops being selected; its goals stay reachable through system runs.
FUTILE_ROUNDS = 3


@dataclass
class FunctionState:
    """What the campaign knows of one non-entry function.

    `carvable` is false for input-dependent functions, which are never
    carved.  `carves` holds the function's pooled carves in the order
    they were taken, and `selections` counts how often select_next
    picked the function.  A function is `skipped` for good once a carve
    of it maps no parameter, or once `futile` (its winnerless fuzz
    rounds in a row) reaches FUTILE_ROUNDS.
    """
    goals: frozenset[BranchGoal]
    carvable: bool = True
    carves: list[CarvedTest] = field(default_factory=list)
    selections: int = 0
    parameterized: bool = False
    skipped: bool = False
    futile: int = 0


def select_next(fns: dict[str, FunctionState],
                discovered: Set[BranchGoal]) -> CarvedTest | None:
    """Pick a carve of the function with the most uncovered goals.

    Only functions with carves that are not skipped compete.  Ties break
    toward the function selected fewer times, then the lexicographically
    smaller name.  Within a function the carves rotate with its
    selection count.  Returns None when no competing function has
    uncovered goals.
    """
    # A key that starts with 0 (nothing uncovered) is the least only
    # when every competing key does.
    best = min(((-len(st.goals - discovered), st.selections, name)
                for name, st in fns.items() if st.carves and not st.skipped),
               default=None)
    if best is None or best[0] == 0:
        return None
    st = fns[best[2]]
    st.selections += 1
    return st.carves[(st.selections - 1) % len(st.carves)]


@dataclass(frozen=True)
class RunConfig:
    mode: str = "bridge"
    budget: float = 60.0            # wall seconds, unless the step clock is on
    n_per_seed: int = 10
    unit_budget: int = 200
    rng_seed: int = 0
    deterministic_clock: int | None = None   # step budget; replaces wall budget
    max_dump_bytes: int = DEFAULT_MAX_DUMP_BYTES
    min_match_len: int = MIN_MATCH_LEN
    first_occurrence_only: bool = False
    corpus_out: str | None = None
    step_limit: int = DEFAULT_STEP_LIMIT
    trace_limit: int = 500_000      # unread; every report's config has it


def _check(cfg: RunConfig, seeds) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.deterministic_clock is None:
        if cfg.budget <= 0:
            raise ConfigError("wall budget must be positive")
    elif cfg.deterministic_clock <= 0:
        raise ConfigError("step budget must be positive")
    if cfg.min_match_len < 1:
        raise ConfigError("min_match_len must be at least 1")
    if cfg.n_per_seed < 1:
        raise ConfigError("n_per_seed must be at least 1")
    if cfg.unit_budget < 1:
        raise ConfigError("unit_budget must be at least 1")
    if not seeds:
        raise ConfigError("at least one seed input is required")


class _Campaign:
    def __init__(self, program, seeds, cfg: RunConfig, program_name: str):
        self.program = program
        self.seeds = list(seeds)
        self.cfg = cfg
        self.program_name = program_name
        self.opts = RunOptions(step_limit=cfg.step_limit,
                               max_dump_bytes=cfg.max_dump_bytes)
        self.step_clock = cfg.deterministic_clock is not None
        self.budget = float(cfg.deterministic_clock if self.step_clock
                            else cfg.budget)
        self.steps = 0
        self.t0 = time.monotonic()
        rng = Rng(cfg.rng_seed)
        self.rng_gen = rng.split()
        self.rng_unit = rng.split()

        self.all_goals = enumerate_goals(program)
        self.discovered: set[BranchGoal] = set()
        # (elapsed, goal, source) in discovery order; the sources are
        # system-seed, system-gen and lift.
        self.log: list[tuple[float, BranchGoal, str]] = []
        input_dependent = compiled(program).input_dependent
        # One record per non-entry function, in name order: selection
        # reads them and the report's function rows are made from them.
        self.fns = {
            name: FunctionState(
                goals=frozenset(goals_in_function(program, name)),
                carvable=name not in input_dependent)
            for name in sorted(f.name for f in program.functions
                               if f.name != ENTRY)}
        self._selectable = True
        # Goals whose lifts validated false-positive: unit-reachable but
        # (apparently) not system-reachable.  Fuzzing stops chasing them.
        self.fp_goals: set[BranchGoal] = set()
        self.origins: dict[str, object] = {}
        self.series: list[tuple[float, float]] = []
        self.carve_totals: dict[str, int] = {
            k: 0 for k in asdict(CarveStats())}
        # The steps of each system input run so far, by (argv, stdin).
        # The VM is deterministic and the run options are fixed, so an
        # untraced repeat is charged these steps instead of running again,
        # and a traced repeat the steps and carves of its first traced run.
        self.steps_of: dict[tuple, int] = {}
        self.traced_of: dict[tuple, RunResult] = {}
        # Executions charged, repeats included; sys_walls holds one wall
        # time per run that executed.  Only charge() writes these three.
        self.system_executions = 0
        self.sys_walls: list[float] = []
        self.unit_walls: list[float] = []
        self.lift = LiftStats()
        self.effective: list[tuple[object, tuple[str, ...], str | None]] = []
        self.gen_ids = (f"gen-{i}" for i in count())
        self.lift_ids = (f"lift-{i}" for i in count())
        self._rr_seed = 0

    # -- budget helpers

    def now(self) -> float:
        """The budget spent: steps on the step clock, else wall seconds."""
        if self.step_clock:
            return float(self.steps)
        return time.monotonic() - self.t0

    def charge(self, key: tuple, steps: int, wall: float | None) -> None:
        """Charge one system execution of input `key`: a run that took
        `wall` seconds, whose repeats take its steps, or (None) a repeat."""
        self.steps += steps
        self.system_executions += 1
        if wall is not None:
            self.steps_of[key] = steps
            self.sys_walls.append(wall)

    def exhausted(self) -> bool:
        return self.now() >= self.budget

    def uncovered(self) -> bool:
        # record() logs only goals of the program, so discovered is a
        # subset of all_goals and comparing the sizes is enough.
        return len(self.discovered) < len(self.all_goals)

    def fraction(self) -> float:
        if not self.all_goals:
            return 1.0
        return len(self.discovered) / len(self.all_goals)

    def point(self) -> None:
        self.series.append((self.now(), self.fraction()))

    def record(self, goals: Set[BranchGoal], source: str) -> None:
        """Log the goals not discovered yet, stamped with the clock now."""
        now = self.now()
        for g in sorted(goals - self.discovered, key=str):
            self.discovered.add(g)
            self.log.append((now, g, source))

    def selectable(self) -> bool:
        """Whether select_next can still return a carve, now or later.

        True while some carvable function is not skipped and has
        uncovered goals.  All carvable functions count, not only those
        with carves, because a function not carved yet can still be.
        Skips and discoveries only accumulate, so once this is false it
        stays false: no carve can be selected again, and tracing and
        carving further runs would change nothing but the carve counts.
        """
        if self._selectable:
            self._selectable = any(
                st.carvable and not st.skipped
                and not st.goals <= self.discovered
                for st in self.fns.values())
        return self._selectable

    # -- execution

    def run_one(self, s, origin_id: str, source: str) -> None:
        """Run `s` and take what it covered, and its carves when traced.

        A repeat of an input already run is charged and counted but not
        run: its goals were recorded the first time.  A traced repeat of
        an input already traced takes that run's carves, stamped with its
        own origin; one run only untraced so far runs traced, for them.
        """
        key = (tuple(s.argv), s.stdin)
        traced = self.cfg.mode == "bridge" and self.selectable()
        if traced and key in self.traced_of:
            result, wall = self.traced_of[key], None
        elif not traced and key in self.steps_of:
            self.charge(key, self.steps_of[key], None)
            self.point()
            return
        else:
            result = (run_with_tracing if traced else run_system)(
                self.program, s, self.opts)
            wall = result.wall_time_s
            if traced:
                self.traced_of[key] = result
        self.charge(key, result.steps, wall)
        self.record(result.coverage, source)
        self.point()
        if traced:
            carves, stats = carve_with_stats(result, origin=origin_id)
            self.origins[origin_id] = s
            for k, v in asdict(stats).items():
                self.carve_totals[k] += v
            for c in carves:
                self.fns[c.start[0]].carves.append(c)

    def system_batch(self) -> None:
        batch = []
        for _ in range(FALLBACK_BATCH):
            base = self.seeds[self._rr_seed % len(self.seeds)]
            self._rr_seed += 1
            batch.append(mutate_input(base, self.rng_gen))
        for s in batch:
            if self.exhausted() or not self.uncovered():
                return
            self.run_one(s, next(self.gen_ids), "system-gen")

    # -- bridge loop

    def fuzz_round(self, sel: CarvedTest) -> None:
        st = self.fns[sel.start[0]]
        origin = self.origins[sel.origin]
        m = build_mapping(sel, origin, self.cfg.min_match_len)
        if not m.parameters:
            st.skipped = True
            return
        st.parameterized = True
        winners, fstats = fuzz_unit_with_stats(
            self.program, sel, m, self.cfg.unit_budget,
            self.discovered | self.fp_goals,
            self.rng_unit.split(), self.opts)
        self.steps += fstats.steps
        self.unit_walls.extend(fstats.wall_times_s)
        self.lift.unit_executions += fstats.executions
        self.lift.unit_winners += len(winners)
        self.point()
        st.futile = 0 if winners else st.futile + 1
        if st.futile >= FUTILE_ROUNDS:
            st.skipped = True
        for w in winners:
            if self.exhausted():
                return
            unit_crash = ((w.status.crash_kind, w.status.crash_fn)
                          if w.status.is_crash() else None)
            lifted = lift(m, w.assignment, origin,
                          self.cfg.first_occurrence_only)
            self.lift.lift_attempts += 1
            out = validate(self.program, lifted, w.new_goals,
                           self.discovered, unit_crash, self.opts)
            # Recorded before the run's steps are charged: on the step
            # clock a lift goal carries the time its validating run began.
            self.record(out.discovered, "lift")
            self.charge((tuple(lifted.argv), lifted.stdin), out.steps,
                        out.wall_time_s)
            self.point()
            if out.classification == "effective":
                self.lift.effective += 1
                crash = None
                if out.status.is_crash():
                    crash = f"{out.status.crash_kind}@{out.status.crash_fn}"
                self.effective.append(
                    (lifted,
                     tuple(sorted(str(g) for g in out.discovered)), crash))
                if not self.exhausted():
                    self.run_one(lifted, next(self.lift_ids), "system-gen")
            elif out.classification == "other-goal":
                self.lift.other_goal += 1
            else:
                self.lift.false_positive += 1
                self.fp_goals |= w.new_goals

    def run(self) -> None:
        bridge = self.cfg.mode == "bridge"
        for i, s in enumerate(self.seeds):
            if self.exhausted():
                return
            self.run_one(s, f"seed-{i}", "system-seed")
        if bridge:
            for s in generate_batch(self.seeds, self.cfg.n_per_seed,
                                    self.rng_gen):
                if self.exhausted() or not self.uncovered():
                    break
                self.run_one(s, next(self.gen_ids), "system-gen")
        while not self.exhausted() and self.uncovered():
            sel = select_next(self.fns, self.discovered) if bridge else None
            if sel is None:
                self.system_batch()
            else:
                self.fuzz_round(sel)

    # -- report assembly

    def report(self, wall_start: float) -> CampaignReport:
        cfg = self.cfg
        paths: list[str | None] = [None] * len(self.effective)
        if cfg.corpus_out is not None and self.effective:
            written = write_corpus(cfg.corpus_out,
                                   [s for s, _, _ in self.effective])
            paths = [str(p) for p in written]
        eff = tuple(
            EffectiveInput(argv=s.argv, stdin=s.stdin, goals=goals,
                           crash=crash, corpus_path=paths[i])
            for i, (s, goals, crash) in enumerate(self.effective))
        rows = tuple(
            FunctionRow(name=name, goals=len(st.goals),
                        covered=len(st.goals & self.discovered),
                        carves=len(st.carves), selections=st.selections,
                        parameterized=st.parameterized, skipped=st.skipped)
            for name, st in self.fns.items())
        med_sys = statistics.median(self.sys_walls) if self.sys_walls else 0.0
        med_unit = (statistics.median(self.unit_walls)
                    if self.unit_walls else 0.0)
        speedup = med_sys / med_unit if med_sys > 0 and med_unit > 0 else 0.0
        return CampaignReport(
            version=REPORT_VERSION,
            program=self.program_name,
            mode=cfg.mode,
            rng_seed=cfg.rng_seed,
            config=asdict(cfg),
            total_goals=len(self.all_goals),
            discovered=len(self.discovered),
            coverage_series=tuple(self.series),
            first_discovery=tuple((e, str(g), src)
                                  for e, g, src in self.log),
            functions=rows,
            carve_stats=dict(self.carve_totals),
            lift_stats=self.lift,
            speedup=SpeedupStats(
                system_executions=self.system_executions,
                unit_executions=self.lift.unit_executions,
                median_system_ms=med_sys * 1000.0,
                median_unit_ms=med_unit * 1000.0,
                speedup=speedup),
            effective_inputs=eff,
            budget_used=self.now(),     # read first: at most total_wall_s
            total_wall_s=time.monotonic() - wall_start,
            system_wall_total_s=sum(self.sys_walls),
        )


def run_campaign(program, seeds, cfg: RunConfig,
                 program_name: str = "program") -> CampaignReport:
    _check(cfg, seeds)
    wall_start = time.monotonic()
    c = _Campaign(program, seeds, cfg, program_name)
    c.run()
    return c.report(wall_start)
