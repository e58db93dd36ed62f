"""Mapping tests.

The oracle is an exhaustive double loop over (leaf, input element,
offset) triples, written here without reference to the implementation's
search strategy.
"""

import pytest

from carvelift.carving import carve_with_stats
from carvelift.mapping import build_mapping, classify_leaf
from carvelift.rng import Rng
from carvelift.vm.interp import run_with_tracing
from carvelift.vm.trace import CarvedTest, Context
from carvelift.vm.values import Record, Ref

from conftest import load_subject, mk_input, random_input_for


def oracle_scan(leaves, elements, min_len):
    """Brute-force occurrence table: every (leaf, input, offset) checked."""
    out = set()
    for path, value in leaves:
        if isinstance(value, bytes):
            needle, enc = value, "raw-bytes"
        elif isinstance(value, int):
            needle, enc = str(value).encode("ascii"), "decimal-int"
        else:
            continue
        if len(needle) < min_len:
            continue
        for idx, elem in enumerate(elements):
            for off in range(len(elem) - len(needle) + 1):
                if elem[off:off + len(needle)] == needle:
                    out.add((path, idx, off, off + len(needle), enc))
    return out


def as_tuples(matches):
    return {(m.leaf, m.input_index, m.start, m.end, m.encoding)
            for m in matches}


def bare_context(args=(), globals_=None, segments=None):
    return CarvedTest(("f", 1), Context(tuple(args), globals_ or {}, segments or {}, False),
                      "test", frozenset())


# ------------------------------------------------------------ classify_leaf

def test_overlapping_occurrences_all_recorded():
    s = mk_input((), b"aaa")
    got = classify_leaf(b"aa", s, min_match_len=2)
    assert got == [(0, (0, 2), "raw-bytes"), (0, (1, 3), "raw-bytes")]


def test_int_matches_shortest_decimal():
    s = mk_input((b"x42y",))
    got = classify_leaf(42, s, min_match_len=2)
    assert got == [(0, (0 + 1, 3), "decimal-int")]


def test_negative_int_matches_with_sign():
    s = mk_input((), b"t=-17;")
    got = classify_leaf(-17, s, min_match_len=3)
    assert got == [(0, (2, 5), "decimal-int")]


def test_short_needles_are_ignored():
    s = mk_input((), b"ab ab ab")
    assert classify_leaf(b"ab", s, min_match_len=3) == []
    assert classify_leaf(7, s) == []


def test_floats_never_match():
    s = mk_input((), b"1.5")
    assert classify_leaf(1.5, s, min_match_len=1) == []


def test_argv_elements_come_before_stdin():
    s = mk_input((b"zzz", b"needle"), b"needle")
    got = classify_leaf(b"needle", s)
    assert [idx for idx, _, _ in got] == [1, 2]


# ------------------------------------------------------------ build_mapping

def test_empty_context_maps_nothing():
    c = bare_context()
    m = build_mapping(c, mk_input((b"one",), b"two"))
    assert m.matches == ()
    assert m.parameters == ()


def test_parameters_are_leaves_with_matches():
    c = bare_context((b"d7wfv", 9), {"tag": b"none"})
    s = mk_input((b"d7wfv", b"xczZ7tz"))
    m = build_mapping(c, s)
    assert m.parameters == ("arg[0]",)
    # untouched: the second argv element and the (empty) stdin element
    assert {mt.input_index for mt in m.matches} == {0}


def test_parameters_are_path_lexicographic():
    c = bare_context((b"xyz",), {"b": b"xyz", "a": b"xyz"})
    m = build_mapping(c, mk_input((), b"  xyz  "))
    assert m.parameters == ("arg[0]", "global:a", "global:b")


def test_leaves_in_segments_participate():
    c = bare_context((), {"db": Ref(4, 0)},
                     {4: [Record("U", {"name": b"admin", "h": 12})]})
    m = build_mapping(c, mk_input((b"admin",)))
    assert m.parameters == ("global:db[0].name",)


def test_truncated_context_still_maps():
    c = CarvedTest(
        ("f", 3),
        Context((b"token",), {"big": None}, {}, True),
        "test", frozenset())
    m = build_mapping(c, mk_input((), b"a token b"))
    assert m.parameters == ("arg[0]",)


def test_match_soundness_and_purity():
    c = bare_context((b"aba", 421))
    s = mk_input((b"aba421",), b"ababa 421421")
    m = build_mapping(c, s)
    elements = s.elements()
    for match in m.matches:
        chunk = elements[match.input_index][match.start:match.end]
        leaf = c.context.resolve(match.leaf)
        if match.encoding == "raw-bytes":
            assert chunk == leaf
        else:
            assert int(chunk) == leaf
    again = build_mapping(c, s)
    assert again.matches == m.matches
    assert again.parameters == m.parameters


# ------------------------------------------------------------ oracle property

ALPHABET = b"ab019 -"


def random_leaf_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return bytes(rng.choice(ALPHABET) for _ in range(rng.randrange(7)))
    if kind == 1:
        return rng.randint(-150, 1100)
    if kind == 2:
        return rng.randint(-3, 3) * 0.5
    return rng.randint(0, 99)


def random_pair(rng):
    args = [random_leaf_value(rng) for _ in range(rng.randrange(3))]
    segments = {}
    shape = rng.randrange(3)
    if shape == 0:
        g = (random_leaf_value(rng), random_leaf_value(rng))
    elif shape == 1:
        g = Ref(0, 0)
        segments[0] = [random_leaf_value(rng), random_leaf_value(rng)]
    else:
        g = Record("P", {"a": random_leaf_value(rng), "b": random_leaf_value(rng)})
    argv = tuple(bytes(rng.choice(ALPHABET) for _ in range(rng.randrange(9)))
                 for _ in range(rng.randrange(3)))
    stdin = bytes(rng.choice(ALPHABET) for _ in range(rng.randrange(14)))
    return bare_context(args, {"g": g}, segments), mk_input(argv, stdin)


@pytest.mark.parametrize("min_len", [1, 2, 3])
def test_mapping_equals_brute_force_scan(min_len):
    rng = Rng(0xA11CE + min_len)
    for _ in range(200):
        c, s = random_pair(rng)
        m = build_mapping(c, s, min_match_len=min_len)
        expected = oracle_scan(list(c.context.leaves()), s.elements(), min_len)
        assert as_tuples(m.matches) == expected
        assert m.parameters == tuple(sorted({t[0] for t in expected}))


# ------------------------------------------------------------ subject behavior

def test_keycheck_user_name_is_a_parameter():
    prog = load_subject("keycheck")
    s = mk_input([b"d7wfv", b"xczZ7tz"])
    result = run_with_tracing(prog, s)
    carves = {c.start[0]: c for c in carve_with_stats(result)[0]}

    m_user = build_mapping(carves["check_user"], s)
    assert "arg[0]" in m_user.parameters


def test_keycheck_hashed_password_is_never_mapped():
    # check_pass runs only for a known user, so drive it with a wrong
    # password; the cleartext never reaches it, only the hash does
    prog = load_subject("keycheck")
    s = mk_input([b"admin", b"wrongpw"])
    result = run_with_tracing(prog, s)
    carves = {c.start[0]: c for c in carve_with_stats(result)[0]}

    m_pass = build_mapping(carves["check_pass"], s)
    # the stored name "admin" coincides with argv[0]; the hash argument
    # and the password element stay unmapped
    assert m_pass.parameters == ("global:db[0].name",)
    assert "arg[1]" not in m_pass.parameters
    assert all(mt.input_index != 1 for mt in m_pass.matches)


def test_mini_dc_carves_have_no_parameters_outside_the_tokenizer():
    prog = load_subject("mini_dc")
    rng = Rng(0xDC)
    fixed = [b"12 34 + p", b"999 1 +", b"5 d +", b"777 888 + p d +"]
    inputs = [mk_input((), body) for body in fixed]
    inputs += [random_input_for("mini_dc", rng) for _ in range(12)]
    seen_other = 0
    for s in inputs:
        result = run_with_tracing(prog, s)
        for c in carve_with_stats(result)[0]:
            m = build_mapping(c, s)
            if c.start[0] != "to_internal":
                seen_other += 1
                assert m.parameters == (), (c.start, m.parameters)
    assert seen_other > 10, "sweep never exercised the digit-array functions"
