"""Lift unit-level parameter assignments back to system inputs.

A mapping ties context leaves to byte ranges of the original system
input.  Lifting rewrites those ranges with the assigned values and
produces a candidate system input; validation runs the candidate and
classifies whether the unit-level discovery survived the trip.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from .errors import ToolError, TypeMismatch
from .inputs import SystemInput
from .lang.goals import BranchGoal
from .mapping import ENC_RAW, Mapping, Match, leaf_bytes
from .unitgen import ParamAssignment
from .vm.interp import RunOptions, RunStatus, run_system


class UnmappedParameter(ToolError):
    """An assignment names a path the mapping has no byte range for."""


def lift(mapping: Mapping, assignment: ParamAssignment,
         origin: SystemInput, first_occurrence_only: bool = False) -> SystemInput:
    """`origin` with every matched occurrence of each assigned
    parameter rewritten to its value.

    Within one input element replacements run right to left so earlier
    ranges stay valid while the buffer length changes.  Ranges that
    overlap a range already rewritten simply edit the evolving buffer;
    with equal-length replacements this is idempotent, with shorter
    ones the occurrences collapse.
    """
    elements = list(origin.elements())
    pending: dict[int, list[tuple[Match, bytes]]] = {}
    for path in sorted(assignment.assignments):
        hits = [mt for mt in mapping.matches if mt.leaf == path]
        if not hits:
            raise UnmappedParameter(f"no input bytes map to {path}")
        if first_occurrence_only:
            hits = hits[:1]
        value = assignment.assignments[path]
        enc = leaf_bytes(value)
        if enc is None or isinstance(value, bytes) != (
                hits[0].encoding == ENC_RAW):
            raise TypeMismatch(f"{path} maps as {hits[0].encoding}, "
                               f"got {value!r}")
        for mt in hits:
            pending.setdefault(mt.input_index, []).append((mt, enc))

    for idx in sorted(pending):
        buf = elements[idx]
        for mt, enc in sorted(pending[idx], key=lambda t: t[0].start,
                              reverse=True):
            buf = buf[:mt.start] + enc + buf[mt.end:]
        elements[idx] = buf
    return SystemInput(tuple(elements[:len(origin.argv)]), elements[-1])


@dataclass(frozen=True)
class LiftOutcome:
    """How a lifted input's validation run went, and what it cost."""
    classification: str     # effective | other-goal | false-positive
    discovered: frozenset   # system goals new relative to prior coverage
    status: RunStatus
    steps: int = 0          # cost of the validation run, for budget clocks
    wall_time_s: float = 0.0


def validate(program, lifted: SystemInput, sought: frozenset,
             known: Set[BranchGoal],
             unit_crash: tuple[str, str] | None = None,
             opts: RunOptions = RunOptions()) -> LiftOutcome:
    """Run the lifted input at system level and classify the result.

    effective: a sought goal shows up in the system run, or the unit
    crash reproduces with the same kind in the same function.
    other-goal: no sought goal, but some goal new to the campaign.
    false-positive: nothing new at all.

    `known` is the goal set already discovered; it is only read.  The
    goals new relative to it come back as `discovered` in every case,
    for the caller to record: a lift that misses its target still paid
    for real coverage.
    """
    result = run_system(program, lifted, opts)
    discovered = frozenset(result.coverage - known)

    reproduced = unit_crash is not None and result.status.site == unit_crash
    if (sought & discovered) or reproduced:
        classification = "effective"
    elif discovered:
        classification = "other-goal"
    else:
        classification = "false-positive"
    return LiftOutcome(classification, discovered, result.status,
                       result.steps, result.wall_time_s)
