from ..errors import TypeMismatch
from .interp import (
    RunOptions, RunResult, RunStatus, call_function, run_system, run_with_tracing,
)
from .trace import serialize_run_result
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, SegmentTable,
    segment_byte_size, value_byte_size, wrap64,
)

__all__ = [
    "INT64_MAX", "INT64_MIN", "Record", "Ref", "RunOptions", "RunResult",
    "RunStatus", "SegmentTable", "TypeMismatch",
    "call_function", "run_system", "run_with_tracing",
    "segment_byte_size", "serialize_run_result", "value_byte_size", "wrap64",
]
