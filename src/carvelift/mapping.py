"""Substring-equality mapping between context leaves and system inputs.

A context leaf becomes a parameter when its encoding occurs somewhere in
the system input, at least MIN_MATCH_LEN bytes long.  `leaf_bytes` is
that encoding, the one the lifter writes back and the unit fuzzer
harvests: byte-string leaves appear raw, integer leaves as their
shortest decimal rendering, floats never.  Every occurrence is recorded
(including overlapping ones); the lifter decides what to do with
multiplicity.

The mapping is a heuristic guess at which context values were copied in
from the input.  Coincidental matches are possible and expected; lifting
re-validates every candidate at system level, so a wrong guess costs a
system execution, never a wrong report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carving import CarvedTest
from .inputs import SystemInput

ENC_RAW = "raw-bytes"
ENC_DECIMAL = "decimal-int"

MIN_MATCH_LEN = 3   # shortest leaf encoding that may match


@dataclass(frozen=True)
class Match:
    leaf: str
    input_index: int
    start: int
    end: int
    encoding: str


@dataclass
class Mapping:
    """Every match of a carve's leaves in its input, and the matched
    leaf paths, the parameters, in path order (the fuzzer gives each
    its own rng stream in that order)."""
    matches: tuple[Match, ...]
    parameters: tuple[str, ...]


def leaf_bytes(value) -> bytes | None:
    """How a leaf appears in an input: a bytes value raw, an int as its
    decimal text, anything else (a float) never, which is None."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, int):
        return str(value).encode("ascii")
    return None


def classify_leaf(value, s: SystemInput, min_match_len: int = MIN_MATCH_LEN):
    """All occurrences of a leaf's encoding across the input elements.

    Returns (input index, (start, end), encoding) triples in element
    order, then offset order.  Overlapping occurrences all count.
    """
    needle = leaf_bytes(value)
    if needle is None or len(needle) < min_match_len:
        return []
    encoding = ENC_RAW if isinstance(value, bytes) else ENC_DECIMAL
    out = []
    for idx, elem in enumerate(s.elements()):
        pos = elem.find(needle)
        while pos >= 0:
            out.append((idx, (pos, pos + len(needle)), encoding))
            pos = elem.find(needle, pos + 1)
    return out


def build_mapping(c: CarvedTest, s: SystemInput,
                  min_match_len: int = MIN_MATCH_LEN) -> Mapping:
    matches = []
    for path, value in c.context.leaves():
        for idx, (start, end), encoding in classify_leaf(value, s,
                                                         min_match_len):
            matches.append(Match(path, idx, start, end, encoding))
    return Mapping(tuple(matches), tuple(sorted({m.leaf for m in matches})))
