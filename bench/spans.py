"""Outside-in span tracing of a campaign's layers.

The tracer wraps public functions at the module attributes through
which the layers call each other, so the package is unchanged and an
untraced run pays nothing.  Each span records its name, its layer, start
and end, its parent span, the campaign it belongs to, and the counts the
call returned.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its children cover.
Nothing in a campaign queues (one campaign at a time, one thread), so
the time work waits for a layer is zero and is not reported.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

import carvelift.campaign as _campaign
import carvelift.carving as _carving
import carvelift.lifting as _lifting
import carvelift.unitgen as _unitgen


def _steps(r):
    return {"steps": r.steps}


def _traced_run(r):
    return {"steps": r.steps, "events": len(r.trace)}


def _carve(out):
    stats = out[1]
    return {"carves": stats.carved, "truncated": stats.truncated,
            "skipped_capped": stats.skipped_capped}


def _mapping(m):
    return {"parameterized": int(bool(m.parameters))}


def _fuzz(out):
    winners, stats = out
    return {"execs": stats.executions, "winners": len(winners)}


def _validate(out):
    return {"effective": int(out.classification == "effective"),
            "false_positive": int(out.classification == "false-positive")}


# (module, attribute, layer, counts taken from the return value)
POINTS = (
    (_campaign, "run_campaign", "campaign", None),
    (_campaign, "run_system", "vm.run_system", _steps),
    (_lifting, "run_system", "vm.run_system", _steps),
    (_campaign, "run_with_tracing", "vm.run_with_tracing", _traced_run),
    (_unitgen, "call_function", "vm.call_function", _steps),
    (_campaign, "carve_with_stats", "carving", _carve),
    (_carving, "snapshot_reachable", "carving.snapshot", None),
    (_carving, "input_reading_functions", "carving.input_scan", None),
    (_campaign, "build_mapping", "mapping", _mapping),
    (_campaign, "fuzz_unit_with_stats", "unitgen", _fuzz),
    (_unitgen, "apply_assignment", "unitgen.world", None),
    (_campaign, "lift", "lifting.lift", None),
    (_campaign, "validate", "lifting.validate", _validate),
    (_campaign, "mutate_input", "sysgen", None),
    (_campaign, "generate_batch", "sysgen", None),
    (_campaign, "select_next", "campaign.select", None),
    (_campaign, "goals_in_function", "lang.goals", None),
)

# The self-time metrics that account for a whole run_campaign span.  The
# layer groups partition the layers above; each must be counted once.
BUSY_METRICS = {
    "campaign.self_s": ("campaign",),
    "campaign.select.busy_s": ("campaign.select",),
    "lang.goals.busy_s": ("lang.goals",),
    "vm.run_system.busy_s": ("vm.run_system",),
    "vm.run_with_tracing.busy_s": ("vm.run_with_tracing",),
    "vm.call_function.busy_s": ("vm.call_function",),
    "carving.busy_s": ("carving", "carving.snapshot", "carving.input_scan"),
    "mapping.busy_s": ("mapping",),
    "unitgen.busy_s": ("unitgen", "unitgen.world"),
    "lifting.lift.busy_s": ("lifting.lift",),
    "lifting.validate.busy_s": ("lifting.validate",),
    "sysgen.busy_s": ("sysgen",),
}

ACCOUNTING_TOLERANCE = 1e-6   # relative, for float sums of many spans


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "campaign",
                 "counts")

    def __init__(self, name, layer, parent, campaign):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.campaign = campaign
        self.start = self.end = 0.0
        self.counts = {}


class Tracer:
    """Records spans while installed; `campaign` tags the spans it opens."""

    def __init__(self):
        self.spans: list[Span] = []
        self.campaign: int | None = None
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, fn, name, layer, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.campaign)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                span.counts = {"raised": type(exc).__name__}
                raise
            span.end = perf_counter()
            stack.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, layer, count in POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(fn, name, layer, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def call(self, layer: str, fn, *args):
        """Run fn(*args) inside one span of the given layer."""
        return self._wrap(fn, fn.__name__, layer, None)(*args)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.campaign, s.counts]) + "\n")


def self_times(spans: list[Span]):
    """Self time of every span, and the spans that do not nest.

    Spans are stored in start order, so siblings arrive in order too: a
    child nests when it lies inside its parent, after the previous child,
    and in the parent's campaign.  Returns (self times, {campaign: problems}).
    """
    covered = [0.0] * len(spans)
    last_end: dict[int, float] = {}
    problems: dict[int | None, list[str]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent < 0:
            if s.campaign is not None and s.layer != "campaign":
                problems[s.campaign].append(f"span {i} ({s.name}) has no parent")
            continue
        p = spans[s.parent]
        if not (max(p.start, last_end.get(s.parent, p.start)) <= s.start
                and s.end <= p.end and s.campaign == p.campaign):
            problems[s.campaign].append(
                f"span {i} ({s.name}) does not nest in span {s.parent} ({p.name})")
        last_end[s.parent] = s.end
        covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)], problems


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], selfs: list[float],
                  subject_of: dict[int, str], subjects) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    by: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for s, t in zip(spans, selfs):
        by[s.layer].append((s, t))

    def calls(layer):
        return len(by[layer])

    def busy(layer):
        return sum(t for _, t in by[layer])

    def total(layer, key):
        return sum(s.counts.get(key, 0) for s, _ in by[layer])

    def durations(layer):
        return [s.end - s.start for s, _ in by[layer]]

    m: dict[str, float] = {}
    for layer in ("vm.run_system", "vm.run_with_tracing", "vm.call_function"):
        d = durations(layer)
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.steps_per_s"] = _ratio(total(layer, "steps"), busy(layer))
        m[f"{layer}.p50_ms"] = _percentile(d, 50) * 1e3
        m[f"{layer}.p99_ms"] = _percentile(d, 99) * 1e3
    overflows = sum(1 for s, _ in by["vm.run_with_tracing"]
                    if s.counts.get("raised") == "TraceOverflow")
    m["vm.run_with_tracing.events_per_run"] = _ratio(
        total("vm.run_with_tracing", "events"),
        calls("vm.run_with_tracing") - overflows)
    m["vm.run_with_tracing.overflows"] = overflows
    for subject in subjects:
        mine = [(s, t) for s, t in by["vm.run_system"]
                if subject_of.get(s.campaign) == subject]
        m[f"vm.run_system.steps_per_s.{subject}"] = _ratio(
            sum(s.counts.get("steps", 0) for s, _ in mine),
            sum(t for _, t in mine))

    for name, layers in BUSY_METRICS.items():
        m[name] = sum(busy(layer) for layer in layers)

    m["carving.calls"] = calls("carving")
    m["carving.ms_per_run"] = _ratio(m["carving.busy_s"] * 1e3, calls("carving"))
    for key in ("carves", "truncated", "skipped_capped"):
        m[f"carving.{key}"] = total("carving", key)
    m["carving.snapshot.busy_s"] = busy("carving.snapshot")
    m["carving.input_scan.calls"] = calls("carving.input_scan")
    m["carving.input_scan.busy_s"] = busy("carving.input_scan")

    m["mapping.calls"] = calls("mapping")
    m["mapping.parameterized_frac"] = _ratio(
        total("mapping", "parameterized"), calls("mapping"))

    m["unitgen.rounds"] = calls("unitgen")
    m["unitgen.execs"] = total("unitgen", "execs")
    m["unitgen.winners_frac"] = _ratio(total("unitgen", "winners"),
                                       m["unitgen.execs"])
    m["unitgen.world.busy_s"] = busy("unitgen.world")
    m["unitgen.world.p50_us"] = _percentile(durations("unitgen.world"), 50) * 1e6

    m["lifting.lift.calls"] = calls("lifting.lift")
    m["lifting.validate.calls"] = calls("lifting.validate")
    m["lifting.effective_frac"] = _ratio(total("lifting.validate", "effective"),
                                         calls("lifting.validate"))
    m["lifting.false_positive"] = total("lifting.validate", "false_positive")

    m["sysgen.calls"] = calls("sysgen")
    m["campaign.select.calls"] = calls("campaign.select")
    m["lang.goals.calls"] = calls("lang.goals")
    m["lang.parse.busy_s"] = busy("lang.parse")
    return m


def check_metric_accounting(m: dict[str, float], spans: list[Span]) -> str | None:
    """The reported busy metrics must add up to the run_campaign spans."""
    campaign_s = sum(s.end - s.start for s in spans if s.layer == "campaign")
    accounted = sum(m[name] for name in BUSY_METRICS)
    if abs(accounted - campaign_s) > ACCOUNTING_TOLERANCE * campaign_s:
        return (f"layer busy times sum to {accounted!r} s, "
                f"run_campaign spans to {campaign_s!r} s")
    return None
