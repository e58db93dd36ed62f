"""Byte-level mutation of system inputs, plus the corpus file format.

The operator palette is the usual mutation-fuzzing fare.  Every operator
is total: any byte string in, some byte string out, worst case unchanged
when the operator has nothing to chew on (a bit flip on an empty string).
One derived input differs from its seed in at most one element, which
keeps lift attribution and debugging simple.

Corpus layout: one file per input, named ``NNN.input``.  The first line
is a JSON header carrying the argv elements (base64); everything after
that first newline is the stdin bytes, verbatim.
"""

from __future__ import annotations

import base64
import decimal
import json
import re
from pathlib import Path

from .errors import FormatError, ToolError
from .inputs import SystemInput
from .rng import Rng


class EmptySeedSet(ToolError):
    """generate_batch needs at least one seed input."""


def span(rng: Rng, n: int) -> tuple[int, int]:
    """A random nonempty [a, b) span inside n bytes (n >= 1)."""
    a = rng.randrange(n)
    return a, a + 1 + rng.randrange(n - a)


def bit_flip(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]


def _byte_set(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]


def _byte_insert(data: bytes, rng: Rng) -> bytes:
    i = rng.randrange(len(data) + 1)
    return data[:i] + bytes([rng.randrange(256)]) + data[i:]


def _byte_delete(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + data[i + 1:]


def _byte_duplicate(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + data[i:i + 1] * 2 + data[i + 1:]


def _chunk_swap(data: bytes, rng: Rng) -> bytes:
    if len(data) < 2:
        return data
    p1, p2, p3, p4 = sorted(rng.randrange(len(data) + 1) for _ in range(4))
    return data[:p1] + data[p3:p4] + data[p2:p3] + data[p1:p2] + data[p4:]


def _chunk_repeat(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    a, b = span(rng, len(data))
    return data[:b] + data[a:b] * (rng.randint(2, 4) - 1) + data[b:]


def _int_perturb(data: bytes, rng: Rng) -> bytes:
    runs = list(re.finditer(rb"[0-9]+", data))
    if not runs:
        return data
    run = rng.choice(runs)
    delta = rng.choice((1, -1, 16, -16, None))
    # Exact decimal arithmetic: CPython's int refuses to convert from or
    # to a string past 4,300 digits.  0 - value, not -value, keeps "-0"
    # out, as int does.
    ctx = decimal.Context(prec=len(run.group()) + 2)
    value = decimal.Decimal(run.group().decode("ascii"))
    value = ctx.subtract(0, value) if delta is None else ctx.add(value, delta)
    return data[:run.start()] + str(value).encode("ascii") + data[run.end():]


def _line_delete(data: bytes, rng: Rng) -> bytes:
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _line_duplicate(data: bytes, rng: Rng) -> bytes:
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])
    return b"".join(lines)


def _line_shuffle(data: bytes, rng: Rng) -> bytes:
    lines = data.splitlines(keepends=True)
    if len(lines) < 2:
        return data
    rng.shuffle(lines)
    return b"".join(lines)


def _truncate(data: bytes, rng: Rng) -> bytes:
    if not data:
        return data
    return data[:rng.randrange(len(data))]


def _append_ascii(data: bytes, rng: Rng) -> bytes:
    return data + rng.printable(rng.randint(1, 8))   # each byte randint(32, 126)


# The palette; mutate_input picks an operator by its position here.
MUTATORS = (
    bit_flip, _byte_set, _byte_insert, _byte_delete, _byte_duplicate,
    _chunk_swap, _chunk_repeat, _int_perturb, _line_delete,
    _line_duplicate, _line_shuffle, _truncate, _append_ascii,
)

_STACK_ONE_IN = 4  # stacked mutations hit with probability 1/4


def mutate_input(s: SystemInput, rng: Rng) -> SystemInput:
    """Derive a new input by mutating exactly one element of the seed."""
    elements = s.elements()
    idx = rng.randrange(len(elements))
    data = elements[idx]
    count = rng.randint(2, 4) if rng.randrange(_STACK_ONE_IN) == 0 else 1
    for _ in range(count):
        data = rng.choice(MUTATORS)(data, rng)
    return s.replace_element(idx, data)


def generate_batch(seeds: list[SystemInput], n_per_seed: int,
                   rng: Rng) -> list[SystemInput]:
    if not seeds:
        raise EmptySeedSet("cannot generate inputs without seeds")
    if n_per_seed < 1:
        raise ValueError("n_per_seed must be at least 1")
    return [mutate_input(seed, rng) for seed in seeds for _ in range(n_per_seed)]


# ---------------------------------------------------------------- corpus

def write_input_file(path, s: SystemInput) -> None:
    header = json.dumps(
        {"argv": [base64.b64encode(a).decode("ascii") for a in s.argv]})
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(b"\n")
        fh.write(s.stdin)


def read_input_file(path) -> SystemInput:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing input header line")
    try:
        argv = json.loads(raw[:newline])["argv"]
        if type(argv) is not list:
            raise TypeError(f"argv must be an array, got {argv!r}")
        argv = tuple(base64.b64decode(x, validate=True) for x in argv)
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad input header: {exc}") from exc
    return SystemInput(argv, raw[newline + 1:])


def write_corpus(dirpath, inputs) -> list[Path]:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    inputs = list(inputs)
    # Padded to the last index's width, at least 3 digits: names sort in order.
    width = max(3, len(str(len(inputs) - 1)))
    paths = []
    for i, s in enumerate(inputs):
        p = d / f"{i:0{width}d}.input"
        write_input_file(p, s)
        paths.append(p)
    return paths


def read_corpus(dirpath) -> list[SystemInput]:
    return [read_input_file(p) for p in sorted(Path(dirpath).glob("*.input"))]
