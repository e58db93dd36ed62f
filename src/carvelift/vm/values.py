"""Runtime value model and the segment table.

Values are represented with plain Python types where possible:

    int    -> 64-bit signed integer (arithmetic wraps, two's complement)
    float  -> 64-bit float
    bytes  -> immutable byte string
    None   -> the null sentinel (legal for any ref, and what truncation
              leaves behind when a segment is dropped from a snapshot)
    tuple  -> immutable inline array
    Record -> immutable named record
    Ref    -> (segment id, element offset) into a SegmentTable

Mutable storage lives only in segments.  A segment is the plain list of
its elements; its length is fixed at allocation.  A Ref with a nonzero
offset is a derived pointer: indexing is relative to the offset and the
remaining length is the segment length minus the offset.

The JSON encoding (docs/formats.md) writes each value as a tagged object
and each segment as the list of its encoded elements.
"""

from __future__ import annotations

import base64

from ..errors import FormatError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_U64 = 1 << 64


def wrap64(v: int) -> int:
    """Reduce an arbitrary Python int to two's-complement 64-bit."""
    v &= _U64 - 1
    return v - _U64 if v > INT64_MAX else v


class Ref:
    __slots__ = ("seg", "off")

    def __init__(self, seg: int, off: int):
        self.seg = seg
        self.off = off

    def __eq__(self, other):
        return isinstance(other, Ref) and other.seg == self.seg and other.off == self.off

    def __hash__(self):
        return hash((Ref, self.seg, self.off))

    def __repr__(self):
        return f"Ref({self.seg}, {self.off})"


class Record:
    """Immutable record value. Field order follows the declaration."""

    __slots__ = ("rtype", "fields")

    def __init__(self, rtype: str, fields: dict):
        self.rtype = rtype
        self.fields = fields

    def with_field(self, name: str, value) -> "Record":
        updated = dict(self.fields)
        updated[name] = value
        return Record(self.rtype, updated)

    def __eq__(self, other):
        return (isinstance(other, Record) and other.rtype == self.rtype
                and other.fields == self.fields)

    def __hash__(self):
        return hash((Record, self.rtype, tuple(self.fields.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.fields.items())
        return f"{self.rtype}{{{inner}}}"


SegmentTable = dict[int, list]


def copy_segments(table: SegmentTable) -> SegmentTable:
    """Copy a table deeply enough that element stores cannot leak across.

    Element values themselves are immutable, so copying each element list
    is a full isolation boundary.
    """
    return {sid: list(seg) for sid, seg in table.items()}


def value_type_name(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):  # guard: bool is an int subclass but never a value
        raise TypeError("bool is not a runtime value")
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, bytes):
        return "bytes"
    if isinstance(v, tuple):
        return "array"
    if isinstance(v, Record):
        return f"record:{v.rtype}"
    if isinstance(v, Ref):
        return "ref"
    raise TypeError(f"not a runtime value: {v!r}")


# ---------------------------------------------------------------- sizing
#
# Deterministic byte accounting used by snapshot budgets.  Scalars and refs
# cost 8; byte strings and composites cost an 8-byte header plus contents;
# a segment costs an 8-byte header plus its elements.

SCALAR_SIZE = 8
HEADER_SIZE = 8


def value_byte_size(v) -> int:
    if v is None or isinstance(v, (int, float, Ref)):
        return SCALAR_SIZE
    if isinstance(v, bytes):
        return HEADER_SIZE + len(v)
    if isinstance(v, tuple):
        return HEADER_SIZE + sum(value_byte_size(x) for x in v)
    if isinstance(v, Record):
        return HEADER_SIZE + sum(value_byte_size(x) for x in v.fields.values())
    raise TypeError(f"not a runtime value: {v!r}")


def segment_byte_size(seg: list) -> int:
    size = HEADER_SIZE
    for x in seg:   # ints, the common element, skip the call
        size += SCALAR_SIZE if type(x) is int else value_byte_size(x)
    return size


# ---------------------------------------------------------------- encoding

def encode_value(v) -> object:
    """JSON-able encoding. Bytes go through base64."""
    if v is None:
        return {"t": "null"}
    if isinstance(v, int):
        return {"t": "int", "v": v}
    if isinstance(v, float):
        return {"t": "float", "v": repr(v)}
    if isinstance(v, bytes):
        return {"t": "bytes", "v": base64.b64encode(v).decode("ascii")}
    if isinstance(v, tuple):
        return {"t": "array", "v": [encode_value(x) for x in v]}
    if isinstance(v, Record):
        return {"t": "record", "name": v.rtype,
                "fields": [[k, encode_value(x)] for k, x in v.fields.items()]}
    if isinstance(v, Ref):
        return {"t": "ref", "seg": v.seg, "off": v.off}
    raise TypeError(f"not a runtime value: {v!r}")


def decode_b64(text) -> bytes:
    """Strict base64: any character outside the alphabet is a FormatError."""
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed base64 {text!r}: {exc}") from exc


def _decode_int(obj: dict, key: str) -> int:
    """A JSON integer (not a bool, a float or a string) at obj[key]."""
    v = obj[key]
    if type(v) is not int:
        raise FormatError(f"{key} must be a JSON integer: {obj!r}")
    return v


def decode_value(obj: object):
    if not isinstance(obj, dict) or "t" not in obj:
        raise FormatError(f"malformed value encoding: {obj!r}")
    t = obj["t"]
    if t == "null":
        return None
    if t == "int":
        v = _decode_int(obj, "v")
        if not INT64_MIN <= v <= INT64_MAX:
            raise FormatError(f"int {v} is outside the signed 64-bit range")
        return v
    if t == "float":
        return float(obj["v"])
    if t == "bytes":
        return decode_b64(obj["v"])
    if t == "array":
        return tuple(decode_value(x) for x in obj["v"])
    if t == "record":
        name, fields = obj["name"], obj["fields"]
        if not isinstance(name, str) or not all(
                isinstance(k, str) for k, _ in fields):
            raise FormatError(f"record and field names must be strings: {obj!r}")
        return Record(name, {k: decode_value(x) for k, x in fields})
    if t == "ref":
        off = _decode_int(obj, "off")
        if off < 0:
            raise FormatError(f"ref offset {off} is negative")
        return Ref(_decode_int(obj, "seg"), off)
    raise FormatError(f"unknown value tag: {t!r}")


def encode_segments(table: SegmentTable) -> dict:
    """A segment table as JSON: each segment its list of encoded elements,
    keyed by its id as a string."""
    return {str(sid): [encode_value(x) for x in seg]
            for sid, seg in sorted(table.items())}


def decode_segments(obj: dict) -> SegmentTable:
    table = {}
    for sid, seg in obj.items():
        if not isinstance(seg, list):
            raise FormatError(f"segment {sid} is not a list: {seg!r}")
        table[int(sid)] = [decode_value(x) for x in seg]
    return table


def iter_refs(v):
    """Yield every Ref inside a value tree."""
    if isinstance(v, Ref):
        yield v
    elif isinstance(v, tuple):
        for x in v:
            yield from iter_refs(x)
    elif isinstance(v, Record):
        for x in v.fields.values():
            yield from iter_refs(x)


def sever(v, keep):
    """Replace refs into segments whose ids are not in `keep` with null."""
    if isinstance(v, Ref):
        return v if v.seg in keep else None
    if isinstance(v, tuple):
        return tuple(sever(x, keep) for x in v)
    if isinstance(v, Record):
        return Record(v.rtype, {k: sever(x, keep) for k, x in v.fields.items()})
    return v


def snapshot_reachable(roots, table: SegmentTable,
                       max_bytes: int) -> tuple[SegmentTable, bool]:
    """Copy of the heap slice reachable from `roots`, under a byte budget.

    Breadth-first over refs, roots in the order given.  Traversal stops
    entirely at the first segment that would push the accumulated size
    past max_bytes, so growing the budget only ever adds segments.  An
    untruncated slice is closed under ref traversal; in a truncated one,
    refs out of the kept slice are severed to null (the caller severs the
    roots).  Returns (kept segments, truncated).
    """
    if max_bytes <= 0:
        raise ValueError("max_bytes must be positive")
    queue: list[int] = []
    seen: set[int] = set()

    def discover(v):
        for r in iter_refs(v):
            if r.seg not in seen and r.seg in table:
                seen.add(r.seg)
                queue.append(r.seg)

    for v in roots:
        discover(v)

    kept: SegmentTable = {}
    used = 0
    qi = 0
    while qi < len(queue):
        sid = queue[qi]
        qi += 1
        seg = table[sid]
        used += segment_byte_size(seg)
        if used > max_bytes:
            for k in kept.values():
                k[:] = [sever(x, kept) for x in k]
            return kept, True
        kept[sid] = list(seg)
        for elem in seg:
            if type(elem) is not int:
                discover(elem)
    return kept, False
