"""Deterministic splittable random streams.

Every randomized component takes one of these instead of the global
``random`` module so that campaigns replay bit-for-bit from a single 64-bit
seed.  The generator is splitmix64: a counter-based stream whose children
are derived from the parent's counter, so sibling streams stay independent
of how much each of them is consumed.

Output k of a stream is the splitmix64 finalizer applied to
``seed + k * GAMMA``, so outputs can be computed in any order.  A stream
draws from a buffer that each refill fills with the next outputs in one
evaluation of the finalizer over a single Python int that holds one
128-bit lane per output.  The first refill computes 8 outputs and each
later one twice as many as the last, up to 256, so a short-lived child of
``split`` computes few outputs it never draws.  Every value in a lane
stays below 2**64, so a 64x64-bit product fits inside its lane; each
xor-shift is masked back to the low 64 bits of every lane, so no bits
cross from one lane into the next.  The lanes are unpacked with one
``to_bytes`` in the host's byte order and a ``"Q"`` cast, taking every
other word: the low word of each lane, read from the end on a
little-endian host and from the start on a big-endian one, so the buffer
is in reverse order and ``pop()`` returns the next output.  The streams
are exactly those of the one-at-a-time generator: every method returns
the same values in the same order.
"""

from __future__ import annotations

import sys
from functools import cache

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15

FIRST_LANES = 8             # outputs of a stream's first refill
LANES = 256                 # the most outputs of any later refill

# The low word of every 128-bit lane, last lane first, from a "Q" cast of
# the packed lanes written in each byte order.
LANE_WORDS = {"little": slice(-2, None, -2), "big": slice(1, None, 2)}
_WORDS = LANE_WORDS[sys.byteorder]

# For n <= 2**32, 2**64 % n is below 2**32, so randrange(n) accepts any
# draw below this bound without computing its exact rejection limit.
_SMALL = 1 << 32
_UNBIASED = _SPAN - _SMALL


@cache
def _lane_constants(n: int) -> tuple[int, int, int]:
    """Constants for an n-lane batch: a 1 in every lane, the 64-bit mask
    of every lane, and lane k's offset (k + 1) * GAMMA."""
    ones = sum(1 << 128 * k for k in range(n))
    offsets = sum(((k + 1) * _GAMMA & _MASK) << 128 * k for k in range(n))
    return ones, ones * _MASK, offsets


def _batch(state: int, n: int) -> list[int]:
    """The n outputs after counter `state`, last one first."""
    ones, mask, offsets = _lane_constants(n)
    z = (state * ones + offsets) & mask
    z = (z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27 & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31 & mask
    return memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[_WORDS].tolist()


class Rng:
    """splitmix64 stream over a 64-bit counter."""

    __slots__ = ("_state", "_buf", "_lanes")

    def __init__(self, seed: int):
        self._state = seed & _MASK      # the counter of the last output computed
        self._buf: list[int] = []       # computed outputs not drawn yet, next last
        self._lanes = FIRST_LANES       # outputs of the next refill

    def next_u64(self) -> int:
        buf = self._buf
        return buf.pop() if buf else self._refill()

    def _refill(self) -> int:
        """The next output, computed with the outputs after it."""
        n = self._lanes
        self._buf = buf = _batch(self._state, n)
        self._state = (self._state + n * _GAMMA) & _MASK
        self._lanes = min(2 * n, LANES)
        return buf.pop()

    def split(self) -> "Rng":
        """Derive an independent child stream.

        The child's seed is drawn from this stream, so repeated splits at the
        same point in a replayed run yield the same children.
        """
        return Rng(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). n must be positive and at most 2**64,
        the span of one draw."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        if n > _SPAN:
            raise ValueError("randrange needs a bound of at most 2**64")
        x = self.next_u64()
        if n <= _SMALL and x < _UNBIASED:
            return x % n
        # Rejection sampling keeps the distribution exactly uniform.
        limit = _SPAN - _SPAN % n
        while x >= limit:
            x = self.next_u64()
        return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice on empty sequence")
        return seq[self.randrange(len(seq))]

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out.extend(self.next_u64().to_bytes(8, "little"))
        return bytes(out[:n])

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
