"""The mini-language's operations on runtime values.

Each checks its operands as the language defines (docs/minilang.md) and
raises Crash at `at`, the position of the statement it was compiled
into.  Binary operators take (at, left, right); every other operation
takes the run state, `at` and its evaluated operands; those with an
effect a run can show check the state's fuel first (see interp).  These
functions define the semantics: the compiled code inlines only common
cases and calls them as the slow paths for the rest, every crash
included.
"""

from __future__ import annotations

import operator

from .values import Record, Ref, equal, render, value_type_name, wrap64


class Crash(Exception):
    """args: kind, message, function, statement id."""


class OutOfSteps(Exception):
    """The run took more steps than its limit."""


def spent(st):
    """End the run as out of budget, at the step after the limit."""
    st.fuel = -1
    raise OutOfSteps()


def fail(at: tuple[str, int], kind: str, message: str):
    raise Crash(kind, message, *at)


_EQUATABLE = frozenset((int, float, bytes, tuple, Ref, Record))


def _equal(at, op, left, right) -> bool:     # op, == or !=, names a crash
    if left is None or right is None:
        return left is None and right is None
    if type(left) is not type(right) or type(left) not in _EQUATABLE:
        fail(at, "type-error",
             f"{op} on {value_type_name(left)} and {value_type_name(right)}")
    if type(left) is tuple or type(left) is Record:
        return equal(left, right)
    return left == right


def _numeric(op, bad: str):
    """+ - * (wrapped for ints) or an ordering (as 0 or 1)."""
    def apply(at, a, b):
        ta, tb = type(a), type(b)
        if (ta is int and tb is int) or (ta is float and tb is float):
            r = op(a, b)
            if type(r) is bool:   # an ordering
                return 1 if r else 0
            return wrap64(r) if ta is int else r
        fail(at, "type-error", bad.format(value_type_name(a), value_type_name(b)))
    return apply


def _division(sym, name, int_op, float_op):
    def apply(at, a, b):
        ta, tb = type(a), type(b)
        if ta is int and tb is int:
            if b == 0:
                fail(at, "div-zero", f"integer {name} by zero")
            q = abs(a) // abs(b)
            return int_op(a, b, q if (a < 0) == (b < 0) else -q)
        if ta is float and tb is float:
            if b == 0.0:
                fail(at, "div-zero", f"float {name} by zero")
            return float_op(a, b)
        fail(at, "type-error",
              f"{sym} on {value_type_name(a)} and {value_type_name(b)}")
    return apply


BINARY = {
    **{sym: _numeric(f, sym + " on {} and {}")
       for sym, f in zip("+-*", (operator.add, operator.sub, operator.mul))},
    **{sym: _numeric(f, "cannot order {} and {}") for sym, f in zip(
        ("<", "<=", ">", ">="), (operator.lt, operator.le, operator.gt, operator.ge))},
    "/": _division("/", "division", lambda a, b, q: wrap64(q),
                   lambda a, b: a / b),
    "%": _division("%", "modulo", lambda a, b, q: wrap64(a - wrap64(q * b)),
                   lambda a, b: a - b * float(int(a / b))),
    "==": lambda at, a, b: 1 if _equal(at, "==", a, b) else 0,
    "!=": lambda at, a, b: 0 if _equal(at, "!=", a, b) else 1,
}


def negate(st, at, v):
    if type(v) is int:
        return wrap64(-v)
    if type(v) is float:
        return -v
    fail(at, "type-error", f"unary - on {value_type_name(v)}")


def logical_not(st, at, v):
    if type(v) is int:
        return 0 if v != 0 else 1
    fail(at, "type-error", f"unary ! on {value_type_name(v)}")


def _segment(st, at, ref):
    seg = st.segments.get(ref.seg)
    if seg is None:
        fail(at, "type-error", "dangling reference")
    return seg


def index(st, at, o, i):
    if type(i) is not int:
        fail(at, "type-error", "index must be int")
    if isinstance(o, (Ref, tuple)):
        seq, off = (_segment(st, at, o), o.off) if isinstance(o, Ref) else (o, 0)
        if i < 0 or off + i >= len(seq):
            fail(at, "oob", f"index {i} out of range")
        return seq[off + i]
    if o is None:
        fail(at, "type-error", "index into null")
    fail(at, "type-error", f"cannot index {value_type_name(o)}")


def store(st, at, o, i, v):
    if not isinstance(o, Ref):
        if o is None:
            fail(at, "type-error", "store through null")
        fail(at, "type-error", f"cannot store into {value_type_name(o)}")
    seg = _segment(st, at, o)
    if type(i) is not int:
        fail(at, "type-error", "index must be int")
    if i < 0 or o.off + i >= len(seg):
        fail(at, "oob", f"store index {i} out of range")
    if st.fuel < 0:
        spent(st)
    seg[o.off + i] = v


def field(st, at, o, name):
    if isinstance(o, Record):
        if name in o.fields:
            return o.fields[name]
        fail(at, "type-error", f"record {o.rtype!r} has no field {name!r}")
    if o is None:
        fail(at, "type-error", "field access on null")
    fail(at, "type-error", f"field access on {value_type_name(o)}")


# ---------------------------------------------------------------- builtins

def _len(st, at, v):
    if isinstance(v, (bytes, tuple)):
        return len(v)
    if isinstance(v, Ref):
        return len(_segment(st, at, v)) - v.off
    fail(at, "type-error", f"len of {value_type_name(v)}")


def _byte_at(st, at, b, i):
    if not isinstance(b, bytes):
        fail(at, "type-error", "byte_at needs bytes")
    if type(i) is not int:
        fail(at, "type-error", "byte_at index must be int")
    if i < 0 or i >= len(b):
        fail(at, "oob", f"byte_at index {i} out of range")
    return b[i]


def _slice(st, at, v, *rest):
    if isinstance(v, bytes):
        if len(rest) != 2:
            fail(at, "type-error", "slice on bytes takes (bytes, start, end)")
        i, j = rest
        if type(i) is not int or type(j) is not int:
            fail(at, "type-error", "slice bounds must be int")
        if i < 0 or j < i or j > len(v):
            fail(at, "oob", f"slice [{i}, {j}) out of range")
        return v[i:j]
    if isinstance(v, Ref):
        if len(rest) != 1:
            fail(at, "type-error", "slice on a ref takes (ref, offset)")
        k = rest[0]
        if type(k) is not int:
            fail(at, "type-error", "slice offset must be int")
        if k < 0 or v.off + k > len(_segment(st, at, v)):
            fail(at, "oob", f"slice offset {k} out of range")
        return Ref(v.seg, v.off + k)
    fail(at, "type-error", f"slice of {value_type_name(v)}")


def _concat(st, at, a, b):
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a + b
    fail(at, "type-error", "concat needs bytes")


def _arg(st, at, i):
    if type(i) is not int:
        fail(at, "type-error", "arg index must be int")
    if i < 0 or i >= len(st.argv):
        fail(at, "oob", f"arg index {i} out of range")
    return st.argv[i]


def _print(st, at, v):
    try:
        text = render(v)
    except TypeError as exc:    # a value outside the language
        fail(at, "type-error", f"print of {exc}")
    if st.fuel < 0:
        spent(st)
    st.output.extend(text + b"\n")
    return 0


def _parse_int(st, at, b):
    if not isinstance(b, bytes):
        fail(at, "type-error", "parse_int needs bytes")
    text = b.decode("latin-1")
    body = text[1:] if text.startswith("-") else text
    if not body or not body.isascii() or not body.isdigit():
        fail(at, "type-error", f"parse_int on non-decimal input {text!r}")
    # 2**64 divides 10**64, so the last 64 digits fix the wrapped value;
    # and int() refuses a string past CPython's digit limit.
    value = int(body[-64:])
    return wrap64(-value if text.startswith("-") else value)


def _to_string(st, at, v):
    if type(v) is int or type(v) is float:   # str() of a float is its repr()
        return str(v).encode("ascii")
    if isinstance(v, bytes):
        return v
    fail(at, "type-error", f"to_string of {value_type_name(v)}")


def _alloc_array(st, at, n, init):
    if type(n) is not int:
        fail(at, "type-error", "alloc_array length must be int")
    if n < 0:
        fail(at, "oob", f"alloc_array length {n} is negative")
    if st.fuel < 0:
        spent(st)
    sid = st.next_seg if st.next_seg is not None else max(st.segments, default=-1) + 1
    st.next_seg = sid + 1
    st.segments[sid] = [init] * n
    return Ref(sid, 0)


def _abort(st, at, msg):
    fail(at, "abort", msg.decode("latin-1") if isinstance(msg, bytes) else repr(msg))


BUILTINS = {
    "len": _len, "byte_at": _byte_at, "slice": _slice, "concat": _concat,
    "arg_count": lambda st, at: len(st.argv), "arg": _arg,
    "read_all_input": lambda st, at: st.stdin, "print": _print,
    "parse_int": _parse_int, "to_string": _to_string,
    "alloc_array": _alloc_array, "abort": _abort,
}
