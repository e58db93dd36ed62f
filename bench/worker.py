"""One repetition of a workload, in a fresh single-threaded process.

    python3 bench/worker.py '{"workload": "dc-bridge", "seed": 7,
                             "scale": 1.0, "traced": false, "spans_out": null}'

Runs the workload's campaigns one after another, timing each
run_campaign call, then checks every report outside the timed region.
Prints one JSON object on its last line.  A fresh process per
repetition gives each one a clean heap, so its peak RSS is its own.

An untraced repetition also times speed.probe() before each campaign
and then, at most every PROBE_EVERY_S, on entry to a call into the VM or
the unit fuzzer (PROBE_POINTS).  Each stretch of the campaign between two probes is
scaled by the probe that opened it (speed.at_reference); the sum is the
campaign's ref_s.  Probe time is left out of wall_s and ref_s.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import carvelift  # noqa: E402
import carvelift.campaign as campaign_module  # noqa: E402
import carvelift.unitgen as unitgen_module  # noqa: E402
from carvelift import resolve_program, resolve_seeds  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# Calls on whose entry a probe may be taken; a missing attribute only
# makes the probes sparser.  call_function puts probes inside unit rounds.
PROBE_POINTS = ((campaign_module, "run_system"),
                (campaign_module, "run_with_tracing"),
                (campaign_module, "fuzz_unit_with_stats"),
                (campaign_module, "validate"),
                (unitgen_module, "call_function"))
PROBE_EVERY_S = 0.005


class SpeedClock:
    """Times a campaign in wall seconds and in reference seconds."""

    def __init__(self):
        self._saved = []
        self.begin()

    def begin(self) -> None:
        self.wall_s = self.ref_s = 0.0
        self._probe_s = speed.probe()
        self._start = perf_counter()

    def _close(self) -> None:
        stretch = perf_counter() - self._start
        self.wall_s += stretch
        self.ref_s += speed.at_reference(stretch, self._probe_s)

    def tick(self) -> None:
        if perf_counter() - self._start >= PROBE_EVERY_S:
            self._close()
            self._probe_s = speed.probe()
            self._start = perf_counter()

    def end(self) -> dict:
        self._close()
        return {"wall_s": self.wall_s, "ref_s": self.ref_s}

    def install(self) -> None:
        tick = self.tick
        for module, attr in PROBE_POINTS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))

            def ticked(*args, _fn=fn, **kwargs):
                tick()
                return _fn(*args, **kwargs)

            setattr(module, attr, ticked)

    def uninstall(self) -> None:
        while self._saved:
            setattr(*self._saved.pop())


def main() -> int:
    if not Path(carvelift.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"carvelift was imported from {carvelift.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(sys.argv[1])
    plan = workloads.campaigns(spec["workload"], spec["seed"], spec["scale"])
    tracer = spans.Tracer() if spec["traced"] else None
    clock = None if tracer else SpeedClock()

    loaded = {}
    for c in plan:
        if c.subject not in loaded:
            program, name = (tracer.call("lang.parse", resolve_program, c.subject)
                             if tracer else resolve_program(c.subject))
            loaded[c.subject] = (program, resolve_seeds(None, name))

    runs = []
    if tracer:
        tracer.install()
    else:
        clock.install()
    try:
        for i, c in enumerate(plan):
            program, seeds = loaded[c.subject]
            if tracer:
                tracer.campaign = i
            if clock:
                clock.begin()
            t0 = perf_counter()
            try:
                report = campaign_module.run_campaign(program, seeds, c.cfg,
                                                      program_name=c.subject)
            except Exception:
                traceback.print_exc()
                report = None
            times = (clock.end() if clock
                     else {"wall_s": perf_counter() - t0, "ref_s": None})
            runs.append((c, report, times))
    finally:
        if tracer:
            tracer.uninstall()
        else:
            clock.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    span_problems: dict = {}
    layers = None
    if tracer:
        selfs, span_problems = spans.self_times(tracer.spans)
        layers = spans.layer_metrics(tracer.spans, selfs,
                                     {i: c.subject for i, c in enumerate(plan)},
                                     workloads.SUBJECTS)
        wrong = spans.check_metric_accounting(layers, tracer.spans)
        if wrong:   # a whole-run sum; charge it to the first campaign
            span_problems[0].append(wrong)
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])

    rows = []
    for i, (c, report, times) in enumerate(runs):
        row = {"subject": c.subject, "config": asdict(c.cfg), **times}
        if report is None:
            row["problems"] = ["run_campaign raised"]
        else:
            program = loaded[c.subject][0]
            row.update(
                budget=c.cfg.deterministic_clock,
                budget_used=report.budget_used,
                discovered=report.discovered,
                total_goals=report.total_goals,
                system_execs=report.speedup.system_executions,
                unit_execs=report.speedup.unit_executions,
                digest=workloads.report_digest(report),
                problems=(workloads.check_report(program, c.cfg, report)
                          + span_problems.get(i, [])))
        rows.append(row)
    print(json.dumps({"campaigns": rows, "rss_mb": rss_mb, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
