"""Lifting tests.

Replacement is checked against a reference rewriter operating on
original match coordinates, and each classification is checked on
subject control flow analyzed by hand (the keycheck '#' name rejection
and the mini_cut backwards-range abort).
"""

import pytest

from carvelift.carving import carve_with_stats
from carvelift.errors import TypeMismatch
from carvelift.lifting import UnmappedParameter, lift, validate
from carvelift.mapping import build_mapping
from carvelift.rng import Rng
from carvelift.unitgen import ParamAssignment, fuzz_unit_with_stats
from carvelift.vm.interp import run_system, run_with_tracing
from carvelift.vm.trace import CarvedTest, Context

from conftest import load_subject, mk_input


def bare_carve(args=(), globals_=None):
    return CarvedTest(("f", 1), Context(tuple(args), globals_ or {}, {}, False),
                      "test", frozenset())


def reference_rewrite(data, spans, enc):
    """Replace original-coordinate spans right-to-left on one element."""
    out = data
    for start, end in sorted(spans, reverse=True):
        out = out[:start] + enc + out[end:]
    return out


# ------------------------------------------------------------ lift mechanics

def test_lift_identity_reproduces_origin():
    prog = load_subject("keycheck")
    origin = mk_input((b"d7wfv", b"xczZ7tz"))
    result = run_with_tracing(prog, origin)
    lifted_any = 0
    for carved in carve_with_stats(result)[0]:
        m = build_mapping(carved, origin)
        if not m.parameters:
            continue
        identity = ParamAssignment(
            {p: carved.context.resolve(p) for p in m.parameters}, "identity")
        li = lift(m, identity, origin)
        assert li == origin
        lifted_any += 1
    assert lifted_any >= 1


def test_lift_replaces_the_mapped_argv_element():
    prog = load_subject("keycheck")
    origin = mk_input((b"d7wfv", b"xczZ7tz"))
    result = run_with_tracing(prog, origin)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_user")
    m = build_mapping(carved, origin)
    li = lift(m, ParamAssignment({"arg[0]": b"admin"}, "harvested"), origin)
    assert li.argv == (b"admin", b"xczZ7tz")
    assert li.stdin == b""


def test_overlapping_matches_collapse():
    c = bare_carve((b"aa",))
    origin = mk_input((), b"aaa")
    m = build_mapping(c, origin, min_match_len=2)
    li = lift(m, ParamAssignment({"arg[0]": b"b"}, "t"), origin)
    spans = [(mt.start, mt.end) for mt in m.matches]
    assert li.stdin == reference_rewrite(b"aaa", spans, b"b")
    assert li.stdin == b"b"


def test_unequal_length_replacement_shifts_right_to_left():
    c = bare_carve((), {"n": 42})
    origin = mk_input((), b"num=42, again 42")
    m = build_mapping(c, origin, min_match_len=2)
    li = lift(m, ParamAssignment({"global:n": 31337}, "t"), origin)
    assert li.stdin == b"num=31337, again 31337"


def test_decimal_matches_encode_assignments_as_decimal():
    c = bare_carve((), {"n": 250})
    origin = mk_input((b"len:250",))
    m = build_mapping(c, origin)
    li = lift(m, ParamAssignment({"global:n": -7}, "t"), origin)
    assert li.argv == (b"len:-7",)
    for value in (b"7", 1.5):       # a decimal match takes only an int
        with pytest.raises(TypeMismatch):
            lift(m, ParamAssignment({"global:n": value}, "t"), origin)


def test_lift_without_matches_is_rejected():
    prog = load_subject("keycheck")
    origin = mk_input((b"admin", b"wrongpw"))
    result = run_with_tracing(prog, origin)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_pass")
    m = build_mapping(carved, origin)
    # the hash argument never maps, so it cannot be lifted
    assert "arg[1]" not in m.parameters
    with pytest.raises(UnmappedParameter):
        lift(m, ParamAssignment({"arg[1]": 99}, "t"), origin)


def test_lift_against_reference_rewriter_randomized():
    rng = Rng(0x11F7)
    alphabet = b"abc01 "
    for _ in range(300):
        leaf = bytes(rng.choice(alphabet) for _ in range(rng.randint(3, 5)))
        c = bare_carve((leaf,))
        argv = tuple(bytes(rng.choice(alphabet) for _ in range(rng.randrange(10)))
                     for _ in range(rng.randrange(3)))
        stdin = bytes(rng.choice(alphabet) for _ in range(rng.randrange(16)))
        origin = mk_input(argv, stdin)
        m = build_mapping(c, origin)
        if "arg[0]" not in m.parameters:
            continue
        enc = rng.randbytes(rng.randrange(6))
        li = lift(m, ParamAssignment({"arg[0]": enc}, "t"), origin)
        for idx, elem in enumerate(origin.elements()):
            spans = [(mt.start, mt.end) for mt in m.matches
                     if mt.input_index == idx]
            expected = reference_rewrite(elem, spans, enc)
            assert li.elements()[idx] == expected


# ------------------------------------------------------------ validation

def keycheck_unit_winner(user=b"d7wfv", pw=b"xczZ7tz", budget=200):
    prog = load_subject("keycheck")
    origin = mk_input((user, pw))
    result = run_with_tracing(prog, origin)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_user")
    m = build_mapping(carved, origin)
    cov = frozenset(result.coverage)
    winners = fuzz_unit_with_stats(prog, carved, m, budget, cov, Rng(0))[0]
    return prog, origin, carved, m, cov, winners


def test_effective_lift_reaches_the_sought_goal():
    prog, origin, carved, m, cov, winners = keycheck_unit_winner()
    admin = next(w for w in winners
                 if w.assignment.assignments.get("arg[0]") == b"admin")
    li = lift(m, admin.assignment, origin)
    out = validate(prog, li, admin.new_goals, cov)
    assert out.classification == "effective"
    assert admin.new_goals & out.discovered
    assert out.discovered == run_system(prog, li).coverage - cov
    assert li.argv[0] == b"admin"


def test_anonymous_name_lift_is_a_false_positive_once_known():
    prog, origin, carved, m, cov, _ = keycheck_unit_winner()
    # system already knows the anonymous-rejection path of main
    cov |= run_system(prog, mk_input((b"#seen", b"x"))).coverage
    probe = ParamAssignment({"arg[0]": b"#probe"}, "t")
    unit_goals = frozenset(
        g for g in load_goals(prog, "check_user") if g.outcome == "then")
    li = lift(m, probe, origin)
    out = validate(prog, li, unit_goals, cov)
    # main rejects the name before check_user ever sees it
    assert out.classification == "false-positive"
    assert out.discovered == frozenset()


def test_anonymous_name_lift_is_other_goal_when_the_rejection_is_new():
    prog, origin, carved, m, cov, _ = keycheck_unit_winner()
    probe = ParamAssignment({"arg[0]": b"#probe"}, "t")
    unit_goals = frozenset(
        g for g in load_goals(prog, "check_user") if g.outcome == "then")
    li = lift(m, probe, origin)
    known = set(cov)
    out = validate(prog, li, unit_goals, known)
    assert out.classification == "other-goal"
    assert out.discovered, "the rejection branch of main is new here"
    # the new goals come back even when not effective; recording them
    # is the caller's job, so the known set is left as it was
    assert not out.discovered & known
    assert known == cov


def load_goals(prog, fn):
    from carvelift.lang.goals import goals_in_function
    return goals_in_function(prog, fn)


def test_crash_reproduction_counts_as_effective():
    prog = load_subject("mini_cut")
    origin = mk_input((b"2-4",), b"aa,bb,cc,dd\n")
    result = run_with_tracing(prog, origin)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "parse_range")
    m = build_mapping(carved, origin)
    assert "arg[0]" in m.parameters

    # pretend the abort branch is already covered: the unit winner then
    # carries no new goals, only the crash itself
    cov = set(result.coverage)
    cov |= run_system(prog, mk_input((b"9-1",), b"")).coverage
    li = lift(m, ParamAssignment({"arg[0]": b"2-0"}, "bytes-bitflip"), origin)
    out = validate(prog, li, frozenset(), cov,
                   unit_crash=("abort", "parse_range"))
    assert out.status.is_crash()
    assert out.status.crash_fn == "parse_range"
    assert out.classification == "effective"


def test_crash_mismatch_does_not_count():
    prog = load_subject("mini_cut")
    origin = mk_input((b"2-4",), b"aa,bb,cc,dd\n")
    result = run_with_tracing(prog, origin)
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "parse_range")
    m = build_mapping(carved, origin)
    cov = set(result.coverage)
    cov |= run_system(prog, mk_input((b"9-1",), b"")).coverage
    # the lifted run aborts in parse_range; a claimed oob elsewhere is not it
    li = lift(m, ParamAssignment({"arg[0]": b"2-0"}, "t"), origin)
    out = validate(prog, li, frozenset(), cov, unit_crash=("oob", "cut_line"))
    assert out.classification == "false-positive"
