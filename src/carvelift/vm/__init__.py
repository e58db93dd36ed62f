from .interp import (
    CRASH_KINDS, RunOptions, RunResult, RunStatus, TypeMismatch,
    call_function, run_system, run_with_tracing, serialize_run_result,
)
from .trace import CallEvent
from .values import (
    INT64_MAX, INT64_MIN, Record, Ref, Segment, SegmentTable, copy_segments,
    segment_byte_size, value_byte_size, wrap64,
)

__all__ = [
    "CallEvent", "CRASH_KINDS", "INT64_MAX", "INT64_MIN", "Record", "Ref",
    "RunOptions", "RunResult", "RunStatus", "Segment", "SegmentTable",
    "TypeMismatch", "call_function", "copy_segments", "run_system",
    "run_with_tracing", "segment_byte_size", "serialize_run_result",
    "value_byte_size", "wrap64",
]
