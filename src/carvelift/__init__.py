"""Bridge between system-level and unit-level test generation.

The pipeline: run a program of the bundled mini-language under the
instrumented VM, carve unit tests (function call plus captured context)
out of the trace, map context leaves onto byte ranges of the system
input, fuzz the mapped leaves at unit level, and lift winning values
back into full system inputs that are re-validated end to end.  The
campaign orchestrator drives that loop against a branch-coverage goal
set; everything it learns lands in a versioned report document.
"""

from .bundled import (
    bundled_seeds, bundled_subject_names, load_bundled_program,
    resolve_program, resolve_seeds,
)
from .campaign import FunctionState, RunConfig, run_campaign, select_next
from .carving import carve_with_stats
from .errors import ConfigError, FormatError, SubjectLoadError, ToolError
from .inputs import SystemInput
from .lifting import LiftOutcome, UnmappedParameter, lift, validate
from .mapping import ENC_DECIMAL, ENC_RAW, Mapping, Match, build_mapping
from .reporting import (
    CampaignReport, EffectiveInput, FunctionRow, LiftStats, SpeedupStats,
    emit_series, parse_report, serialize_report,
)
from .rng import Rng
from .sysgen import (
    EmptySeedSet, generate_batch, mutate_input, read_corpus, read_input_file,
    write_corpus, write_input_file,
)
from .unitgen import (
    FuzzStats, NoParameters, ParamAssignment, UnitOutcome, UnknownParameter,
    apply_assignment, fuzz_unit_with_stats,
)
from .vm.trace import CarveStats, CarvedTest, Context, load_snapshot, save_snapshot

__version__ = "0.1.0"

__all__ = [
    "CampaignReport",
    "CarveStats",
    "CarvedTest",
    "ConfigError",
    "Context",
    "ENC_DECIMAL",
    "ENC_RAW",
    "EffectiveInput",
    "EmptySeedSet",
    "FormatError",
    "FunctionRow",
    "FunctionState",
    "FuzzStats",
    "LiftOutcome",
    "LiftStats",
    "Mapping",
    "Match",
    "NoParameters",
    "ParamAssignment",
    "Rng",
    "RunConfig",
    "SpeedupStats",
    "SubjectLoadError",
    "SystemInput",
    "ToolError",
    "UnitOutcome",
    "UnknownParameter",
    "UnmappedParameter",
    "apply_assignment",
    "build_mapping",
    "bundled_seeds",
    "bundled_subject_names",
    "carve_with_stats",
    "emit_series",
    "fuzz_unit_with_stats",
    "generate_batch",
    "lift",
    "load_bundled_program",
    "load_snapshot",
    "mutate_input",
    "parse_report",
    "read_corpus",
    "read_input_file",
    "resolve_program",
    "resolve_seeds",
    "run_campaign",
    "save_snapshot",
    "select_next",
    "serialize_report",
    "validate",
    "write_corpus",
    "write_input_file",
]
