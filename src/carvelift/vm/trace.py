"""Trace events and their canonical JSON encoding.

One event per instrumentation point, in execution order.  The `kind`
field of the encoding selects the event; the other fields are fixed per
kind:

    call          call_index, fn, args (argument values, the global values
                  at call time, the byte-budgeted snapshot of every
                  segment reachable from either, and whether the budget
                  truncated it; the entry call has no snapshot)
    return        call_index
    branch        goal

Byte strings inside values are base64.  The encoding exists for
determinism checks (`serialize_run_result`); traces are not persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.goals import BranchGoal
from .values import SegmentTable, encode_segment, encode_value


@dataclass
class CallEvent:
    """One call, with the context a carve of it replays.

    `segments` is the heap slice reachable from the arguments and globals
    at call time, copied under the run's byte budget; it is None for the
    entry call, which is never carved.  When `truncated` is set, refs out
    of the slice (in args, globals and segments alike) are null.
    """

    call_index: int
    fn: str
    args: list
    globals: dict[str, object]
    segments: Optional[SegmentTable]
    truncated: bool


@dataclass
class ReturnEvent:
    call_index: int


@dataclass
class BranchEvent:
    goal: BranchGoal


TraceEvent = CallEvent | ReturnEvent | BranchEvent


def encode_event(ev: TraceEvent) -> dict:
    if isinstance(ev, CallEvent):
        return {
            "kind": "call",
            "call_index": ev.call_index,
            "fn": ev.fn,
            "args": {
                "values": [encode_value(v) for v in ev.args],
                "globals": {k: encode_value(v) for k, v in sorted(ev.globals.items())},
                "segments": None if ev.segments is None else {
                    str(sid): encode_segment(s)
                    for sid, s in sorted(ev.segments.items())},
                "truncated": ev.truncated,
            },
        }
    if isinstance(ev, ReturnEvent):
        return {"kind": "return", "call_index": ev.call_index}
    if isinstance(ev, BranchEvent):
        return {"kind": "branch", "goal": str(ev.goal)}
    raise TypeError(f"not a trace event: {ev!r}")
