"""Campaign report documents.

A report is a versioned, self-contained JSON document; every table a
campaign produces (per-function carve counts, lift effectiveness,
unit/system speedup, coverage over time) is derivable from it without
re-running anything; coverage_series reads coverage over time off the
discovery log.  parse_report(serialize_report(r)) == r.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, FormatError
from .vm.interp import DEFAULT_MAX_DUMP_BYTES, DEFAULT_STEP_LIMIT, RunOptions
from .vm.trace import CarveStats
from .vm.values import decode_b64

REPORT_VERSION = 4
MODES = ("bridge", "system-only")


@dataclass(frozen=True)
class RunConfig:
    """A campaign's settings: its mode, budget, rng seed and limits,
    checked as they are made, in a campaign and a parsed report alike."""
    mode: str = "bridge"
    budget: float = 60.0            # wall seconds, unless the step clock is on
    unit_budget: int = 200
    rng_seed: int = 0
    deterministic_clock: int | None = None   # step budget; replaces wall budget
    max_dump_bytes: int = DEFAULT_MAX_DUMP_BYTES
    corpus_out: str | None = None
    step_limit: int = DEFAULT_STEP_LIMIT
    trace_limit: int = 500_000      # unread; every report's config has it

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.deterministic_clock is None:
            if not 0 < self.budget < math.inf:    # a NaN budget fails this too
                raise ConfigError("wall budget must be positive and finite")
        elif self.deterministic_clock <= 0:
            raise ConfigError("step budget must be positive")
        if self.unit_budget < 1:
            raise ConfigError("unit_budget must be at least 1")
        RunOptions(step_limit=self.step_limit,      # checks both limits
                   max_dump_bytes=self.max_dump_bytes)


@dataclass(frozen=True)
class FunctionRow:
    """One function's line in a report: its goals, carves and selection."""
    name: str
    goals: int
    covered: int
    carves: int
    selections: int
    parameterized: bool
    skipped: bool   # dropped from selection: unmapped, or repeatedly sterile


@dataclass
class LiftStats:
    """Unit-to-system lift tallies; the campaign counts straight into one."""

    unit_winners: int = 0
    lift_attempts: int = 0
    effective: int = 0
    other_goal: int = 0
    false_positive: int = 0


@dataclass(frozen=True)
class SpeedupStats:
    """System and unit execution counts and median wall times, and their ratio."""
    system_executions: int = 0
    unit_executions: int = 0
    median_system_ms: float = 0.0
    median_unit_ms: float = 0.0
    speedup: float = 0.0


@dataclass(frozen=True)
class EffectiveInput:
    """An effective lift: its input, the goals it found, its crash and corpus file."""
    argv: tuple[bytes, ...]
    stdin: bytes
    goals: tuple[str, ...]
    crash: str | None
    corpus_path: str | None


@dataclass(frozen=True)
class CampaignReport:
    """Everything a campaign reports; docs/formats.md defines each field."""
    version: int
    program: str
    config: RunConfig
    total_goals: int
    discovered: int
    first_discovery: tuple[tuple[float, str, str], ...]
    functions: tuple[FunctionRow, ...]
    carve_stats: CarveStats
    lift_stats: LiftStats
    speedup: SpeedupStats
    effective_inputs: tuple[EffectiveInput, ...]
    total_wall_s: float
    budget_used: float
    system_wall_total_s: float


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def serialize_report(r: CampaignReport) -> str:
    """The report as JSON: every dataclass field in declaration order,
    and bytes as base64."""
    doc = asdict(r)
    for e in doc["effective_inputs"]:
        e["argv"] = [_b64(a) for a in e["argv"]]
        e["stdin"] = _b64(e["stdin"])
    return json.dumps(doc, indent=2)


def _decode(tp, value):
    """`value` from a JSON document as the declared type `tp`.

    Dataclasses are built field by field from objects with exactly
    their fields' keys, tuples element-wise from arrays, `X | None`
    from null or as X, bytes from base64, floats from finite numbers and
    int, str and bool from their own JSON types; else TypeError.
    """
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        if type(value) is not dict:
            raise TypeError(f"expected a JSON object, got {value!r}")
        if value.keys() != hints.keys():
            raise TypeError(f"{tp.__name__} keys missing {sorted(hints - value.keys())}"
                            f", extra {sorted(value.keys() - hints)}")
        return tp(**{name: _decode(hints[name], value[name])
                     for name in hints})
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if type(value) is not list:
            raise TypeError(f"expected a JSON array, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    if type(None) in args:      # X | None
        return None if value is None else _decode(args[0], value)
    if tp is bytes:
        return decode_b64(value)
    if (type(value) not in ((int, float) if tp is float else (tp,))
            or tp is float and not math.isfinite(value)):
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    return float(value) if tp is float else value


def parse_report(text: str) -> CampaignReport:
    """The report in `text`, whose discovery log must agree with its
    counts, its order and its budget_used."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("report document must be a JSON object")
    if doc.get("version") != REPORT_VERSION:
        raise FormatError(
            f"unsupported report version {doc.get('version')!r}, "
            f"expected {REPORT_VERSION}")
    try:
        r = _decode(CampaignReport, doc)
    except (TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"report document is malformed: {exc!r}") from exc
    stamps = [e for e, _, _ in r.first_discovery]
    if not r.discovered == len(stamps) <= r.total_goals:
        raise FormatError(f"discovered {r.discovered} with {len(stamps)} "
                          f"first_discovery entries of {r.total_goals} goals")
    if stamps != sorted(stamps) or stamps and stamps[-1] > r.budget_used:
        raise FormatError("first_discovery stamps out of order or past budget_used")
    return r


def coverage_series(r: CampaignReport) -> tuple[tuple[float, float], ...]:
    """Coverage over time, read off the discovery log.

    One point (elapsed, fraction) per distinct first_discovery stamp, at
    the fraction after that stamp's last goal, then the closing point
    (budget_used, discovered / total_goals), which replaces a last point
    stamped budget_used.  A report with no goals reads 1.0.
    """
    series = {e: n / r.total_goals
              for n, (e, _, _) in enumerate(r.first_discovery, 1)}
    series[r.budget_used] = r.discovered / r.total_goals if r.total_goals else 1.0
    return tuple(series.items())


def emit_series(report: CampaignReport, path) -> None:
    """Write coverage_series(report) as two-column plain text.

    Column one is elapsed budget (seconds or steps, per the campaign
    clock), column two the coverage fraction.  Output is byte-stable
    for a given report.
    """
    lines = ["# elapsed coverage_fraction"]
    for elapsed, fraction in coverage_series(report):
        lines.append(f"{elapsed!r} {fraction!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
