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

The JSON encoding (docs/formats.md) writes a scalar as a tagged object,
each array and record once as a part that names its items, and each
segment as the list of its elements' items.
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
    """A reference: a heap segment's number and an offset into it."""
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


# ---------------------------------------------------------------- rebuilding

def rebuilt(v, memo: dict, leaf, part):
    """`v` rebuilt bottom up in one walk: each scalar as `leaf(x)`, each
    array and record as `part(x, items)` from its items rebuilt.  `memo`
    holds each part's result by id(), as `sizes` does for _size_and_refs,
    so a part held in several places is rebuilt once and every place gets
    that; the caller keeps every part alive while it keeps `memo`."""
    todo, done = [(v, False)], []
    while todo:
        v, ready = todo.pop()
        if type(v) is not tuple and type(v) is not Record:
            done.append(leaf(v))
        elif id(v) in memo:
            done.append(memo[id(v)])
        elif not ready:     # its items first, then itself from them
            todo.append((v, True))
            todo += [(x, False) for x in reversed(v if type(v) is tuple
                                                  else v.fields.values())]
        else:
            n = len(v if type(v) is tuple else v.fields)
            memo[id(v)] = part(v, done[len(done) - n:])
            done[len(done) - n:] = [memo[id(v)]]
    return done[0]


def sever(v, keep, copies: dict):
    """`v` with each ref into a segment whose id is not in `keep` null;
    each array and record in it is copied once into `copies` (`rebuilt`)."""
    return rebuilt(v, copies, lambda x: None if type(x) is Ref and x.seg not in keep else x,
                   lambda x, items: tuple(items) if type(x) is tuple
                   else Record(x.rtype, dict(zip(x.fields, items))))


# ---------------------------------------------------------------- encoding

def _scalar_item(v) -> dict:
    if type(v) is int:
        return {"t": "int", "v": v}
    if type(v) is bytes:
        return {"t": "bytes", "v": base64.b64encode(v).decode("ascii")}
    if type(v) is Ref:
        return {"t": "ref", "seg": v.seg, "off": v.off}
    if v is None:
        return {"t": "null"}
    if type(v) is float:
        return {"t": "float", "v": repr(v)}
    raise TypeError(f"not a runtime value: {v!r}")


def value_encoder():
    """(item, parts): `item(v)` is the JSON item of a value the caller
    keeps alive, and each array and record in it is appended to `parts`
    once, after every part it holds, as the item that names it."""
    parts, memo = [], {}

    def part(v, items):
        parts.append({"t": "array", "v": items} if type(v) is tuple else
                     {"t": "record", "name": v.rtype, "fields": [*map(list, zip(v.fields, items))]})
        return {"t": "part", "i": len(parts) - 1}
    return (lambda v: _scalar_item(v) if type(v) is not tuple and type(v) is not Record
            else rebuilt(v, memo, _scalar_item, part)), parts


def decode_b64(text) -> bytes:
    """Strict base64: any character outside the alphabet is a FormatError."""
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed base64 {text!r}: {exc}") from exc


def _decode_int(obj: dict, key: str, lo=INT64_MIN, hi=INT64_MAX) -> int:
    """A JSON integer (not a bool, a float or a string) at obj[key], from lo to hi."""
    v = obj[key]
    if type(v) is not int or not lo <= v <= hi:
        raise FormatError(f"{key} must be a JSON integer from {lo} to {hi}: {obj!r}")
    return v


_NAME = re.compile(IDENT)


def value_decoder(parts: list, segments: dict):
    """(item, table): `item` decodes an item of the document that holds
    `parts` and `segments`, `table` is its segments decoded; FormatError
    if malformed.  Segment lengths are read first, so each ref is checked
    as it is built, and each part is built in order from items naming
    only parts built before it, so no document nests or makes a cycle."""
    lengths = {}
    for sid, seg in segments.items():
        if not isinstance(seg, list) or not sid.lstrip("-").isdecimal() or str(int(sid)) != sid:
            raise FormatError(f"segment {sid!r} must be a list, its id an int as str() writes it")
        lengths[int(sid)] = len(seg)
    built = []

    def item(obj):
        t = obj.get("t") if isinstance(obj, dict) else None
        if t == "part":
            k = _decode_int(obj, "i")
            if not 0 <= k < len(built):
                raise FormatError(f"part {k} is not one of the {len(built)} built before it")
            return built[k]
        if t == "null":
            return None
        if t == "int":      # no run of the language holds one past 64 bits
            return _decode_int(obj, "v")
        if t == "float":    # repr() of the float, as _scalar_item writes it
            v = obj["v"]
            if type(v) is not str or repr(float(v)) != v:
                raise FormatError(f"float must be a repr() string: {obj!r}")
            return float(v)
        if t == "bytes":
            return decode_b64(obj["v"])
        if t != "ref":      # an array or a record is written only as a part
            raise FormatError(f"not an item: {obj!r}")
        off = _decode_int(obj, "off", 0)
        ref = Ref(_decode_int(obj, "seg"), off)
        if off > lengths.get(ref.seg, -1):
            raise FormatError(f"{ref} lies outside the segment table")
        return ref

    for obj in parts:
        t = obj.get("t") if isinstance(obj, dict) else None
        if t == "array":
            built.append(tuple(map(item, obj["v"])))
        elif t != "record":
            raise FormatError(f"a part must be an array or a record: {obj!r}")
        elif all(type(n) is str and _NAME.fullmatch(n)
                 for n in (obj["name"], *dict(obj["fields"]))):
            built.append(Record(obj["name"], {k: item(x) for k, x in obj["fields"]}))
        else:
            raise FormatError(f"record and field names must be identifiers: {obj!r}")
    return item, {int(sid): list(map(item, seg)) for sid, seg in segments.items()}


def snapshot_reachable(roots: list, table: SegmentTable,
                       max_bytes: int) -> tuple[list, SegmentTable, bool]:
    """Copy of the heap slice reachable from `roots`, under a byte budget.

    Breadth-first over refs, roots in the order given.  Traversal stops
    entirely at the first segment that would push the accumulated size
    past max_bytes, so growing the budget only ever adds segments.  An
    untruncated slice is closed under ref traversal; in a truncated one,
    refs out of it, in roots and segments alike, are severed to null with
    one `copies`.  Returns (the roots as it holds them, it, truncated).
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
            return [sever(v, kept, copies) for v in roots], kept, True
        kept[sid] = list(seg)
        discover(refs)
    return roots, kept, False
