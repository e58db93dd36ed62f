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
import re
from dataclasses import dataclass

from ..errors import FormatError
from ..lang.lexer import IDENT

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_U64 = 1 << 64


def wrap64(v: int) -> int:
    """Reduce an arbitrary Python int to two's-complement 64-bit."""
    v &= _U64 - 1
    return v - _U64 if v > INT64_MAX else v


@dataclass(slots=True, unsafe_hash=True)
class Ref:
    seg: int
    off: int

    def __repr__(self):
        return f"Ref({self.seg}, {self.off})"


@dataclass(slots=True)
class Record:
    """Immutable record value. Field order follows the declaration."""

    rtype: str
    fields: dict

    def __hash__(self):
        return hash((Record, self.rtype, tuple(self.fields.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.fields.items())
        return f"{self.rtype}{{{inner}}}"


SegmentTable = dict[int, list]


# ---------------------------------------------------------------- walks
#
# A run can nest arrays and records deeper than Python's recursion limit,
# so every walk over a value keeps its own stack.

def equal(a, b) -> bool:
    """Python's `a == b`, with a stack for nested values.  As in Python,
    an item inside an array or a record equals itself, NaN too."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is tuple and type(b) is tuple:
            if len(a) != len(b):
                return False
            pairs += [(x, y) for x, y in zip(a, b) if x is not y]
        elif type(a) is Record and type(b) is Record:
            if a.rtype != b.rtype or a.fields.keys() != b.fields.keys():
                return False
            pairs += [(x, b.fields[k]) for k, x in a.fields.items() if x is not b.fields[k]]
        elif a != b:
            return False
    return True


def render(v) -> bytes:
    """The text `print` writes for `v`, or a TypeError that names the
    type of a value in it outside the language.  Punctuation goes on the
    stack as byte strings, which print as themselves."""
    if type(v) is not tuple and type(v) is not Record:
        return _scalar_text(v)
    out, todo = [], [v]
    while todo:
        v = todo.pop()
        if type(v) is tuple:
            parts = [b"["]
            for i, x in enumerate(v):
                parts += (b", ", x) if i else (x,)
            todo += reversed(parts + [b"]"])
        elif type(v) is Record:
            parts = [v.rtype.encode("ascii") + b"{"]
            for i, (k, x) in enumerate(v.fields.items()):
                parts += (b", " if i else b"", k.encode("ascii") + b": ", x)
            todo += reversed(parts + [b"}"])
        else:
            out.append(_scalar_text(v))
    return b"".join(out)


def _scalar_text(v) -> bytes:
    if type(v) is bytes:
        return v
    if type(v) is float:
        return repr(v).encode("ascii")
    if type(v) is Ref:
        return f"ref({v.seg}, {v.off})".encode("ascii")
    if type(v) is int:
        return str(v).encode("ascii")
    if v is None:
        return b"null"
    raise TypeError(value_type_name(v))


_TYPE_NAMES = {type(None): "null", int: "int", float: "float", bytes: "bytes",
               tuple: "array", Ref: "ref"}


def value_type_name(v) -> str:
    """`v`'s type as messages name it.  A Python value outside the
    language, a bool among them, is `Python <type>`."""
    if type(v) is Record:
        return f"record:{v.rtype}"
    return _TYPE_NAMES.get(type(v)) or f"Python {type(v).__name__}"


# ---------------------------------------------------------------- sizing
#
# Deterministic byte accounting used by snapshot budgets.  Scalars and refs
# cost 8; byte strings and composites cost an 8-byte header plus contents;
# a segment costs an 8-byte header plus its elements.  A value held in
# several places counts at each place.  A walk memoizes the size of each
# array and record by id(), so it walks each distinct part once, however
# many places hold it, and adds its size at every one.

SCALAR_SIZE = 8
HEADER_SIZE = 8


_CLOSE = object()   # on a walk's stack: the part opened last is done


def _size_and_refs(v, sizes: dict[int, int]) -> tuple[int, list]:
    """`v`'s byte size and the Refs inside it in order, in one walk.

    `sizes` holds the size of each array and record walked so far, by
    id(): a part already in it adds its size but is not walked again, so
    its refs are listed only at its first walk.  The caller keeps every
    part alive while it keeps `sizes`, so no id is reused meanwhile.
    """
    size, refs, todo = 0, [], [v]
    opened = []     # (id, size outside it) of each part being walked
    while todo:
        v = todo.pop()
        if type(v) is tuple or type(v) is Record:
            known = sizes.get(id(v))
            if known is not None:
                size += known
                continue
            opened.append((id(v), size))
            size = HEADER_SIZE
            todo.append(_CLOSE)
            todo += reversed(v if type(v) is tuple else v.fields.values())
        elif type(v) is Ref:
            size += SCALAR_SIZE
            refs.append(v)
        elif type(v) is bytes:
            size += HEADER_SIZE + len(v)
        elif v is None or type(v) is int or type(v) is float:
            size += SCALAR_SIZE
        elif v is _CLOSE:
            key, outside = opened.pop()
            sizes[key] = size
            size += outside
        else:
            raise TypeError(f"not a runtime value: {v!r}")
    return size, refs


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


_NAME = re.compile(IDENT)


def decode_value(obj: object, lengths: dict[int, int]):
    """The value encode_value wrote; FormatError if it is malformed or
    holds a ref past its segment's length in `lengths` (by segment id)."""
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
    if t == "float":    # repr() of the float, as encode_value writes it
        v = obj["v"]
        if type(v) is not str or repr(float(v)) != v:
            raise FormatError(f"float must be a repr() string: {obj!r}")
        return float(v)
    if t == "bytes":
        return decode_b64(obj["v"])
    if t == "array":
        return tuple(decode_value(x, lengths) for x in obj["v"])
    if t == "record":
        name, fields = obj["name"], obj["fields"]
        if not all(isinstance(n, str) and _NAME.fullmatch(n)
                   for n in (name, *(k for k, _ in fields))):
            raise FormatError(f"record and field names must be identifiers: {obj!r}")
        return Record(name, {k: decode_value(x, lengths) for k, x in fields})
    if t == "ref":
        off = _decode_int(obj, "off")
        if off < 0:
            raise FormatError(f"ref offset {off} is negative")
        ref = Ref(_decode_int(obj, "seg"), off)
        if off > lengths.get(ref.seg, -1):
            raise FormatError(f"{ref} lies outside the segment table")
        return ref
    raise FormatError(f"unknown value tag: {t!r}")


def encode_segments(table: SegmentTable) -> dict:
    """A segment table as JSON: each segment its list of encoded elements,
    keyed by its id as a string."""
    return {str(sid): [encode_value(x) for x in seg]
            for sid, seg in sorted(table.items())}


def decode_segments(obj: dict) -> SegmentTable:
    """The table encode_segments wrote.  Every segment's length is known
    before any element is decoded, so each ref is checked as it is built."""
    lengths = {}
    for sid, seg in obj.items():
        if not isinstance(seg, list):
            raise FormatError(f"segment {sid} is not a list: {seg!r}")
        if not sid.lstrip("-").isdecimal() or str(int(sid)) != sid:
            raise FormatError(f"segment id {sid!r} is not an integer as str() writes it")
        lengths[int(sid)] = len(seg)
    return {int(sid): [decode_value(x, lengths) for x in seg] for sid, seg in obj.items()}


def sever(v, keep, copies: dict | None = None):
    """`v` with each ref into a segment whose id is not in `keep` replaced
    by null; every array and record in it is a new one.

    `copies` holds the copy of each array and record severed so far, by
    id(), as `sizes` does for _size_and_refs: a part held in several
    places is copied once, and the copies share it as the original did.
    """
    copies = {} if copies is None else copies
    todo, done = [(v, False)], []
    while todo:
        v, ready = todo.pop()
        if type(v) is not tuple and type(v) is not Record:
            done.append(None if type(v) is Ref and v.seg not in keep else v)
        elif id(v) in copies:
            done.append(copies[id(v)])
        elif not ready:     # its items first, then itself from them
            todo.append((v, True))
            todo += [(x, False) for x in reversed(v if type(v) is tuple
                                                  else v.fields.values())]
        else:
            n = len(v if type(v) is tuple else v.fields)
            items = done[len(done) - n:]
            del done[len(done) - n:]
            copies[id(v)] = (tuple(items) if type(v) is tuple
                             else Record(v.rtype, dict(zip(v.fields, items))))
            done.append(copies[id(v)])
    return done[0]


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

    def discover(refs):
        for r in refs:
            if r.seg not in seen and r.seg in table:
                seen.add(r.seg)
                queue.append(r.seg)

    # The size of each array and record walked, roots included; the
    # roots and the table hold every part alive until the call returns.
    sizes: dict[int, int] = {}
    for v in roots:
        discover(_size_and_refs(v, sizes)[1])

    kept: SegmentTable = {}
    used = 0
    qi = 0
    while qi < len(queue):
        sid = queue[qi]
        qi += 1
        seg = table[sid]
        used += HEADER_SIZE
        refs = []
        for elem in seg:
            if type(elem) is int:   # the common element, walked inline
                used += SCALAR_SIZE
                continue
            size = sizes.get(id(elem))
            if size is None:
                size, elem_refs = _size_and_refs(elem, sizes)
                refs += elem_refs
            used += size
        if used > max_bytes:
            copies: dict = {}
            for k in kept.values():
                k[:] = [sever(x, kept, copies) for x in k]
            return kept, True
        kept[sid] = list(seg)
        discover(refs)
    return kept, False
