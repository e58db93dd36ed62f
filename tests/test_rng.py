"""The splitmix64 streams: known answers, and every method against a
one-output-at-a-time reference across the batched refills."""

import os
import random
import subprocess
import sys
from array import array

import pytest

from carvelift import rng as rng_module
from carvelift.rng import FIRST_LANES, LANE_WORDS, LANES, Rng

GAMMA = 0x9E3779B97F4A7C15
SRC = os.path.dirname(os.path.dirname(rng_module.__file__))
C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class Reference:
    """splitmix64 one output at a time (Steele, Lea and Flood, 2014)."""

    def __init__(self, seed):
        self.state, self.drawn = seed % 2**64, 0

    def next_u64(self):
        self.state, self.drawn = (self.state + GAMMA) % 2**64, self.drawn + 1
        z = self.state
        z = (z ^ z >> 30) * C1 % 2**64
        z = (z ^ z >> 27) * C2 % 2**64
        return z ^ z >> 31

    # The derived methods as the generator has always defined them.
    def split(self):
        return Reference(self.next_u64())

    def randrange(self, n):
        while (x := self.next_u64()) >= 2**64 - 2**64 % n:
            pass
        return x % n

    def randint(self, lo, hi):
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def randbytes(self, n):
        out = b"".join(self.next_u64().to_bytes(8, "little")
                       for _ in range(0, n, 8))
        return out[:n]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def counter_of(output):
    """The counter value whose finalized output is `output`."""
    z = output ^ output >> 31 ^ output >> 62
    z = z * pow(C2, -1, 2**64) % 2**64
    z = z ^ z >> 27 ^ z >> 54
    z = z * pow(C1, -1, 2**64) % 2**64
    return z ^ z >> 30 ^ z >> 60


def seed_with(output, k):
    """A seed whose output k (from 0) is `output`."""
    return (counter_of(output) - (k + 1) * GAMMA) % 2**64


def test_known_answers():
    r = Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    assert Rng(0).next_u64() == 0xE220A8397B1DCDAF


# The sizes of a stream's refills until they reach LANES: 8, 16, ..., 256.
RAMP = [FIRST_LANES << i for i in range((LANES // FIRST_LANES).bit_length())]
# Past every refill of the ramp and one refill of LANES.
PAST_REFILLS = sum(RAMP) + LANES + 1
BOUNDS = (1, 2, 95, 256, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 7, 2**64 - 1, 2**64)


def step(pair, r, live):
    """One random call on both sides of `pair`; both must agree."""
    new, ref = pair
    op = r.randrange(8)
    if op == 0:
        assert new.next_u64() == ref.next_u64()
    elif op in (1, 2):
        n = r.choice(BOUNDS)
        assert new.randrange(n) == ref.randrange(n), n
    elif op == 3:
        lo = r.randrange(-300, 300)
        hi = lo + r.choice((0, 1, 94, 2**32, 2**40))
        assert new.randint(lo, hi) == ref.randint(lo, hi)
    elif op == 4:
        seq = "abcdefghij"[:r.randrange(1, 11)]
        assert new.choice(seq) == ref.choice(seq)
    elif op == 5:
        n = r.randrange(-2, 70)
        assert new.randbytes(n) == ref.randbytes(n)
    elif op == 6:
        a = list(range(r.randrange(25)))
        b = list(a)
        new.shuffle(a)
        ref.shuffle(b)
        assert a == b
    elif len(live) < 3:
        live.append((new.split(), ref.split()))


@pytest.mark.parametrize("chunk", range(4))
def test_every_method_matches_the_scalar_reference(chunk):
    """Calls interleave at random over a stream and the children split
    from it, and every stream is read past several refills."""
    for seed in range(chunk * 50, chunk * 50 + 50):
        r = random.Random(seed)
        s = r.getrandbits(64) if seed % 2 else seed
        live = [(Rng(s), Reference(s))]
        while True:
            behind = [p for p in live if p[1].drawn < PAST_REFILLS]
            if not behind:
                break
            step(r.choice(behind), r, live)
        for new, ref in live:
            assert new.next_u64() == ref.next_u64()


@pytest.mark.parametrize("k", [0, FIRST_LANES - 1, FIRST_LANES,
                               sum(RAMP) - 1, sum(RAMP), sum(RAMP) + 100])
def test_randrange_rejects_exactly_the_draws_the_reference_rejects(k):
    """Draws at or above 2**64 - 2**32 leave the fast path: 2**64 - 1 is
    rejected for n = 3, and 2**64 - 2**32 is accepted for n = 95."""
    for output, n in ((2**64 - 1, 3), (2**64 - 2**32, 95), (2**64 - 1, 2**32)):
        seed = seed_with(output, k)
        ref = Reference(seed)
        assert [ref.next_u64() for _ in range(k + 1)][k] == output
        new, ref = Rng(seed), Reference(seed)
        for _ in range(k):
            assert new.next_u64() == ref.next_u64()
        assert new.randrange(n) == ref.randrange(n)
        assert new.next_u64() == ref.next_u64()


def test_randrange_refuses_a_bound_below_one_without_drawing():
    r, ref = Rng(5), Reference(5)
    for n in (0, -1, -2**70):
        with pytest.raises(ValueError):
            r.randrange(n)
    assert r.next_u64() == ref.next_u64()


def test_randrange_refuses_a_bound_past_one_draw_without_drawing():
    # Past 2**64 no draw lies below the rejection limit.
    r, ref = Rng(5), Reference(5)
    for n in (2**64 + 1, 10**30):
        with pytest.raises(ValueError):
            r.randrange(n)
    for lo, hi in ((0, 2**64), (-2**63, 2**63)):
        with pytest.raises(ValueError):
            r.randint(lo, hi)
    assert r.randrange(2**64) == ref.next_u64()
    assert r.randint(-2**63, 2**63 - 1) == ref.next_u64() - 2**63
    assert r.next_u64() == ref.next_u64()


@pytest.mark.parametrize("order", sorted(LANE_WORDS))
def test_lane_words_pick_each_lanes_low_word_in_either_byte_order(order):
    """Lane k holds output k in its low word and zero above it; a "Q"
    cast of the packed lanes, as a host of `order` reads it, sliced by
    LANE_WORDS[order] gives the outputs last first."""
    ref = Reference(99)
    outputs = [ref.next_u64() for _ in range(FIRST_LANES)]
    packed = sum(v << 128 * k for k, v in enumerate(outputs))
    words = array("Q", packed.to_bytes(16 * FIRST_LANES, order))
    if order != sys.byteorder:
        words.byteswap()
    assert words[LANE_WORDS[order]].tolist() == outputs[::-1]


def test_refills_double_from_the_first_size_up_to_lanes():
    r = Rng(11)
    sizes = []
    for _ in range(sum(RAMP) + 2 * LANES):
        refill = not r._buf
        r.next_u64()
        if refill:
            sizes.append(len(r._buf) + 1)
    assert sizes == RAMP + [LANES, LANES]


def test_lane_constants_are_built_on_the_first_refill():
    imported = subprocess.run(
        [sys.executable, "-c", "import carvelift.rng as m; "
         "print(m._lane_constants.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert imported.stdout.strip() == "0"
    rng_module._lane_constants.cache_clear()
    r = Rng(3)
    assert rng_module._lane_constants.cache_info().currsize == 0
    r.next_u64()
    assert rng_module._lane_constants.cache_info().currsize == 1


@pytest.mark.parametrize("chunk", range(2))
def test_printable_gives_what_per_byte_randrange_gives(chunk):
    """Over many seeds and lengths, printable(n) returns the bytes of n
    calls of 32 + randrange(95) and leaves the stream where they do,
    across refills and between other draws."""
    for seed in range(chunk * 100, chunk * 100 + 100):
        r = random.Random(seed)
        new, ref = Rng(seed), Reference(seed)
        while ref.drawn < PAST_REFILLS:
            n = r.choice((0, 1, 2, FIRST_LANES - 1, FIRST_LANES, FIRST_LANES + 1,
                          r.randrange(2 * LANES)))
            assert new.printable(n) == bytes(32 + ref.randrange(95) for _ in range(n))
            if r.randrange(3) == 0:
                assert new.next_u64() == ref.next_u64()
        assert new.next_u64() == ref.next_u64()


@pytest.mark.parametrize("k", [0, 5, FIRST_LANES - 1, FIRST_LANES,
                               sum(RAMP) - 1, sum(RAMP) + 100])
def test_printable_takes_a_draw_past_the_fast_bound_as_randrange_does(k):
    """Output k at or above 2**64 - 2**32 goes through randrange: 2**64 - 1
    lies past 95's rejection limit and is redrawn, while 2**64 - 2**32
    and the limit less one are accepted.  Output k is read by a printable
    call that starts at output 0, one that starts just before it, and
    one that starts at it."""
    limit = 2**64 - 2**64 % 95
    for output, redrawn in ((2**64 - 1, True), (2**64 - 2**32, False), (limit - 1, False)):
        seed = seed_with(output, k)
        for before in sorted({0, max(k - 1, 0), k}):
            new, ref = Rng(seed), Reference(seed)
            assert new.printable(before) == bytes(32 + ref.randrange(95)
                                                  for _ in range(before))
            n = k - before + 1 + FIRST_LANES
            assert new.printable(n) == bytes(32 + ref.randrange(95) for _ in range(n))
            assert ref.drawn == before + n + redrawn
            assert new.next_u64() == ref.next_u64()
