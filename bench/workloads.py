"""The benchmark's workloads and the per-campaign correctness gate.

Every campaign runs on the step clock (``RunConfig.deterministic_clock``),
so the work done and the goals found repeat exactly for a given workload
and seed; only wall time and memory vary between repetitions.  The
workload seed picks the campaigns' rng seeds; the program itself only
ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from carvelift import RunConfig, SystemInput, serialize_report
from carvelift.lang.goals import enumerate_goals
from carvelift.vm.interp import RunOptions, run_system

SUBJECTS = ("keycheck", "mini_cut", "mini_dc", "mini_sed", "mini_tac")

DC_BRIDGE_STEPS = 600_000
SHORT_BRIDGE_STEPS = {"keycheck": 400_000, "mini_sed": 600_000}
SHORT_BRIDGE_SEEDS = 8
SYSTEM_ONLY_STEPS = 1_000_000
SYSTEM_ONLY_SEEDS = 2

# The re-anchor table in ROADMAP.md: (subject, mode) -> (goals found,
# total goals, budget_used) at --rng-seed 7 and 600k steps (400k for
# keycheck).  Goals come from the table; budget_used is pinned from the
# commit that introduced this benchmark.
BASELINE_RNG_SEED = 7
BASELINE = {
    ("keycheck", "bridge"): (20, 28, 408_570),
    ("keycheck", "system-only"): (15, 28, 408_416),
    ("mini_dc", "bridge"): (46, 48, 600_199),
    ("mini_dc", "system-only"): (46, 48, 600_341),
    ("mini_sed", "bridge"): (37, 42, 684_288),
    ("mini_sed", "system-only"): (39, 42, 601_085),
    ("mini_cut", "bridge"): (39, 40, 600_109),
    ("mini_cut", "system-only"): (39, 40, 600_171),
    ("mini_tac", "bridge"): (19, 20, 600_019),
    ("mini_tac", "system-only"): (19, 20, 600_846),
}


@dataclass(frozen=True)
class Campaign:
    subject: str
    cfg: RunConfig


def _clock(steps: int, scale: float) -> int:
    return max(1, int(steps * scale))


def campaigns(workload: str, seed: int, scale: float = 1.0) -> list[Campaign]:
    """The campaigns one repetition of a workload runs, in order.

    `scale` shrinks every step clock; the self-check runs at a small
    fraction so it stays quick.  "baseline" is the ROADMAP table, whose
    rng seed is fixed and ignores `seed`.
    """
    if workload == "dc-bridge":
        return [Campaign("mini_dc", RunConfig(
            mode="bridge", rng_seed=seed,
            deterministic_clock=_clock(DC_BRIDGE_STEPS, scale)))]
    if workload == "short-bridge":
        return [Campaign(subject, RunConfig(
                    mode="bridge", rng_seed=seed + i,
                    deterministic_clock=_clock(steps, scale)))
                for i in range(SHORT_BRIDGE_SEEDS)
                for subject, steps in SHORT_BRIDGE_STEPS.items()]
    if workload == "system-only":
        return [Campaign(subject, RunConfig(
                    mode="system-only", rng_seed=seed + i,
                    deterministic_clock=_clock(SYSTEM_ONLY_STEPS, scale)))
                for i in range(SYSTEM_ONLY_SEEDS)
                for subject in SUBJECTS]
    if workload == "baseline":
        return [Campaign(subject, RunConfig(
                    mode=mode, rng_seed=BASELINE_RNG_SEED,
                    deterministic_clock=400_000 if subject == "keycheck"
                    else 600_000))
                for subject, mode in BASELINE]
    raise ValueError(f"unknown workload {workload!r}")


def report_digest(report) -> str:
    """sha256 of the serialized report with every wall-time field zeroed."""
    timeless = replace(
        report, total_wall_s=0.0, system_wall_total_s=0.0,
        speedup=replace(report.speedup, median_system_ms=0.0,
                        median_unit_ms=0.0, speedup=0.0))
    return hashlib.sha256(serialize_report(timeless).encode()).hexdigest()


def check_report(program, cfg: RunConfig, report) -> list[str]:
    """Problems with one campaign's report; empty when it is correct.

    Replays every effective input through run_system, so call it outside
    any timed region.
    """
    problems = []
    if not report.discovered == len(report.first_discovery) <= report.total_goals:
        problems.append(
            f"discovered={report.discovered} first_discovery="
            f"{len(report.first_discovery)} total_goals={report.total_goals}")
    known = {str(g) for g in enumerate_goals(program)}
    stray = sorted({g for _, g, _ in report.first_discovery} - known)
    if stray:
        problems.append(f"first-discovery goals not in the program: {stray}")
    opts = RunOptions(step_limit=cfg.step_limit, trace_limit=cfg.trace_limit)
    for k, e in enumerate(report.effective_inputs):
        r = run_system(program, SystemInput(e.argv, e.stdin), opts)
        missing = sorted(set(e.goals) - {str(g) for g in r.coverage})
        crash = (f"{r.status.crash_kind}@{r.status.crash_fn}"
                 if r.status.is_crash() else None)
        if missing:
            problems.append(f"effective input {k} misses goals {missing}")
        if crash != e.crash:
            problems.append(
                f"effective input {k} replays crash {crash}, report says {e.crash}")
    return problems
