"""The calls a traced run records, and their canonical JSON encoding.

A traced run records only the calls carving keeps.  The entry function
and input-reading functions are never recorded.  Any other call is
recorded, with a snapshot of its context, while fewer than
`RunOptions.per_fn_cap` recorded calls of its function have returned.
Of the recorded calls that return, the first `per_fn_cap` of each
function by call index are kept; a call still open when the run ends
holds no place under the cap.  The run counts every call it does not
keep in its `CarveStats`.

A recorded call's coverage is the set of branch goals reached while it
was open, its callees' included: a branch adds to the innermost open
recorded call's set, and a return merges that set into the one below.

The encoding of a call (`encode_call`) exists for determinism checks
(`serialize_run_result`); byte strings inside values are base64, and
traces are not persisted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..lang.ast import ENTRY
from ..lang.goals import BranchGoal
from .values import (
    SegmentTable, encode_segment, encode_value, sever, snapshot_reachable,
)


@dataclass
class CallEvent:
    """One recorded call, with the context a carve of it replays.

    `segments` is the heap slice reachable from the arguments and globals
    at call time, copied under the run's byte budget.  When `truncated`
    is set, refs out of the slice (in args, globals and segments alike)
    are null.  `coverage` is filled in when the call returns.
    """

    call_index: int
    fn: str
    args: list
    globals: dict[str, object]
    segments: SegmentTable
    truncated: bool
    coverage: frozenset[BranchGoal] = frozenset()


@dataclass
class CarveStats:
    carved: int = 0
    truncated: int = 0
    skipped_incomplete: int = 0
    skipped_capped: int = 0
    skipped_input_dependent: int = 0


class Tracer:
    """The recording state of one traced run.

    `sets` holds the run's coverage set, then the set of each open
    recorded call, innermost last; the run state's `coverage` is always
    the last, so a branch adds to it without knowing it is traced.
    """

    def __init__(self, per_fn_cap: int, input_dependent: frozenset[str],
                 coverage: set):
        self.cap = per_fn_cap
        self.input_dependent = input_dependent
        self.calls = 0              # call indices handed out, main's too
        self.returned: Counter[str] = Counter()   # recorded, per function
        self.done: list[CallEvent] = []
        self.sets = [coverage]
        self.stats = CarveStats()

    def enter(self, st, name: str, args: list):
        """Number the call; what `leave` needs: its record when it is
        recorded, else its name, or None for the entry function."""
        call_index = self.calls
        self.calls += 1
        if name == ENTRY:
            return None
        self.stats.skipped_incomplete += 1      # until it returns
        if name in self.input_dependent or self.returned[name] >= self.cap:
            return name
        # The context: the arguments, then the globals by name.
        globals_ = dict(st.globals)
        segments, truncated = snapshot_reachable(
            [*args, *(globals_[n] for n in sorted(globals_))], st.segments,
            st.opts.max_dump_bytes)
        if truncated:
            args = [sever(v, segments) for v in args]
            globals_ = {n: sever(v, segments) for n, v in globals_.items()}
        st.coverage = set()
        self.sets.append(st.coverage)
        return CallEvent(call_index, name, list(args), globals_, segments,
                         truncated)

    def leave(self, st, call) -> None:
        """The call `enter` returned `call` for has returned."""
        if call is None:
            return
        self.stats.skipped_incomplete -= 1
        if type(call) is str:
            if call in self.input_dependent:
                self.stats.skipped_input_dependent += 1
            else:
                self.stats.skipped_capped += 1
            return
        inner = self.sets.pop()
        call.coverage = frozenset(inner)
        st.coverage = self.sets[-1]
        st.coverage |= inner
        self.returned[call.fn] += 1
        self.done.append(call)

    def finish(self, st) -> list[CallEvent]:
        """The kept calls in call order, once the run has ended.  Leaves
        the whole run's coverage in `st.coverage`."""
        run = self.sets[0]
        for inner in self.sets[1:]:     # calls open when the run ended
            run |= inner
        st.coverage = run
        kept: list[CallEvent] = []
        per_fn: Counter[str] = Counter()
        for call in sorted(self.done, key=lambda c: c.call_index):
            if per_fn[call.fn] >= self.cap:
                self.stats.skipped_capped += 1
                continue
            per_fn[call.fn] += 1
            kept.append(call)
        self.stats.carved = len(kept)
        self.stats.truncated = sum(c.truncated for c in kept)
        return kept


def encode_call(call: CallEvent) -> dict:
    return {
        "call_index": call.call_index,
        "fn": call.fn,
        "args": [encode_value(v) for v in call.args],
        "globals": {k: encode_value(v) for k, v in sorted(call.globals.items())},
        "segments": {str(sid): encode_segment(s)
                     for sid, s in sorted(call.segments.items())},
        "truncated": call.truncated,
        "coverage": sorted(str(g) for g in call.coverage),
    }
