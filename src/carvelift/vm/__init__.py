from .interp import (
    CRASH_KINDS, RunOptions, RunResult, RunStatus, TypeMismatch,
    call_function, run_system, run_with_tracing, serialize_run_result,
)
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, SegmentTable, copy_segments,
    segment_byte_size, value_byte_size, wrap64,
)

__all__ = [
    "CRASH_KINDS", "INT64_MAX", "INT64_MIN", "Record", "Ref", "RunOptions",
    "RunResult", "RunStatus", "SegmentTable", "TypeMismatch",
    "call_function", "copy_segments", "run_system", "run_with_tracing",
    "segment_byte_size", "serialize_run_result", "value_byte_size", "wrap64",
]
