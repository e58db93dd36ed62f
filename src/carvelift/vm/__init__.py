from ..errors import TypeMismatch
from .interp import (
    RunOptions, RunResult, RunStatus, call_function, run_system, run_with_tracing,
)
from .trace import serialize_run_result
from .values import INT64_MAX, INT64_MIN, Record, Ref, SegmentTable, wrap64

__all__ = [
    "INT64_MAX", "INT64_MIN", "Record", "Ref", "RunOptions", "RunResult",
    "RunStatus", "SegmentTable", "TypeMismatch",
    "call_function", "run_system", "run_with_tracing",
    "serialize_run_result", "wrap64",
]
