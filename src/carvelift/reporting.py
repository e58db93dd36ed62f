"""Campaign report documents.

A report is a versioned, self-contained JSON document; every table a
campaign produces (per-function carve counts, lift effectiveness,
unit/system speedup, coverage over time) is derivable from it without
re-running anything.  parse_report(serialize_report(r)) == r.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import FormatError
from .vm.values import decode_b64

REPORT_VERSION = 2


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

    unit_executions: int = 0
    unit_winners: int = 0
    lift_attempts: int = 0
    effective: int = 0
    other_goal: int = 0
    false_positive: int = 0

    @property
    def pct_lifted(self) -> float:
        if not self.unit_winners:
            return 0.0
        return 100.0 * self.lift_attempts / self.unit_winners

    @property
    def pct_effective(self) -> float:
        if not self.lift_attempts:
            return 0.0
        return 100.0 * self.effective / self.lift_attempts


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
    mode: str
    rng_seed: int
    config: dict
    total_goals: int
    discovered: int
    coverage_series: tuple[tuple[float, float], ...]
    first_discovery: tuple[tuple[float, str, str], ...]
    functions: tuple[FunctionRow, ...]
    carve_stats: dict
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
    bytes as base64, and lift_stats followed by its derived pct_* values.
    """
    doc = asdict(r)
    doc["lift_stats"].update(pct_lifted=r.lift_stats.pct_lifted,
                             pct_effective=r.lift_stats.pct_effective)
    for e in doc["effective_inputs"]:
        e["argv"] = [_b64(a) for a in e["argv"]]
        e["stdin"] = _b64(e["stdin"])
    return json.dumps(doc, indent=2)


def _decode(tp, value):
    """`value` from a JSON document as the declared type `tp`.

    Dataclasses are built field by field (keys they do not declare, such
    as pct_*, are ignored), tuples element-wise, bytes from base64 and
    floats with float(); any other value is taken as it is.
    """
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return tp(**{f.name: _decode(hints[f.name], value[f.name])
                     for f in fields(tp)})
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    if tp is bytes:
        return decode_b64(value)
    if tp is float:
        return float(value)
    return value


def parse_report(text: str) -> CampaignReport:
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
        return _decode(CampaignReport, doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"report document is malformed: {exc!r}") from exc


def emit_series(report: CampaignReport, path) -> None:
    """Write the coverage series as two-column plain text.

    Column one is elapsed budget (seconds or steps, per the campaign
    clock), column two the coverage fraction.  Output is byte-stable
    for a given report.
    """
    lines = ["# elapsed coverage_fraction"]
    for elapsed, fraction in report.coverage_series:
        lines.append(f"{elapsed!r} {fraction!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
