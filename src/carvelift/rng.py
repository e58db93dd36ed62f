"""Deterministic splittable random streams.

Every randomized component takes one of these instead of the global
``random`` module so that campaigns replay bit-for-bit from a single 64-bit
seed.  The generator is splitmix64: a counter-based stream whose children
are derived from the parent's counter, so sibling streams stay independent
of how much each of them is consumed.
"""

from __future__ import annotations

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15


class Rng:
    """splitmix64 stream over a 64-bit counter."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return z ^ (z >> 31)

    def split(self) -> "Rng":
        """Derive an independent child stream.

        The child's seed is drawn from this stream, so repeated splits at the
        same point in a replayed run yield the same children.
        """
        return Rng(self.next_u64())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). n must be positive."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        # Rejection sampling keeps the distribution exactly uniform.
        limit = _SPAN - _SPAN % n
        while True:
            x = self.next_u64()
            if x < limit:
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
