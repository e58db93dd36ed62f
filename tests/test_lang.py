"""Frontend tests.

Goal enumeration is checked against two independent oracles: a keyword
count over the raw token stream, and a hand-rolled recursive walk over
statement bodies that never touches the goal module's own traversal.
"""

import hashlib
import sys

import pytest

from carvelift.lang.ast import SIf, SWhile, iter_stmts
from carvelift.lang.errors import (
    DuplicateDefinition,
    MiniLangError,
    MiniSyntaxError,
    UnresolvedReference,
)
from carvelift.lang.goals import BranchGoal, enumerate_goals, goals_in_function
from carvelift.lang.lexer import tokenize
from carvelift.lang.parser import MAX_BLOCK_DEPTH, MAX_ELSE_IF, MAX_EXPR_DEPTH, parse
from carvelift.lang.pretty import pretty_print
from carvelift.rng import Rng

from conftest import SUBJECT_NAMES, load_subject, subject_source
from progen import else_if_chain, generate, main_source, nested_sources
from test_generated_goldens import GEN_SEED


def token_oracle(source: str) -> int:
    """Branch goals by token count: every if/while contributes two."""
    conds = sum(1 for t in tokenize(source)
                if t.kind == "keyword" and t.text in ("if", "while"))
    return 2 * conds


def walk_oracle(body) -> int:
    """Conditional statements by direct recursion over statement bodies."""
    n = 0
    for s in body:
        if isinstance(s, SIf):
            n += 1 + walk_oracle(s.then_body)
            if s.else_body is not None:
                n += walk_oracle(s.else_body)
        elif isinstance(s, SWhile):
            n += 1 + walk_oracle(s.body)
    return n


# ---------------------------------------------------------------- parsing

def test_minimal_program():
    p = parse("fn main() {}")
    assert len(p.functions) == 1
    assert p.globals == []
    assert enumerate_goals(p) == set()


def test_single_conditional_yields_one_goal_pair():
    p = parse('fn main() { if (arg_count() > 0) { print("x"); } }')
    goals = enumerate_goals(p)
    assert len(goals) == 2
    assert {g.outcome for g in goals} == {"then", "else"}
    assert {g.fn for g in goals} == {"main"}


def test_single_loop_yields_enter_and_exit():
    p = parse("fn main() { let i = 0; while (i < 3) { i = i + 1; } }")
    goals = enumerate_goals(p)
    assert len(goals) == 2
    assert {g.outcome for g in goals} == {"loop-enter", "loop-exit"}
    (stmt_id,) = {g.stmt for g in goals}
    assert stmt_id > 0


def test_syntax_error_carries_a_position():
    with pytest.raises(MiniSyntaxError) as exc:
        parse("fn main( {}")
    assert exc.value.pos.line == 1
    assert exc.value.pos.col > 1


def test_duplicate_definitions_are_rejected():
    with pytest.raises(DuplicateDefinition):
        parse("fn main() {}\nfn main() {}")
    with pytest.raises(DuplicateDefinition):
        parse("global g: int = 0;\nglobal g: int = 1;\nfn main() {}")
    with pytest.raises(DuplicateDefinition):
        parse("record R { a: int, a: int }\nfn main() {}")


def test_unresolved_references_are_rejected():
    with pytest.raises(UnresolvedReference):
        parse("fn main() { let x = nowhere(); }")
    with pytest.raises(UnresolvedReference):
        parse("fn main() { let x = y + 1; }")


def test_program_must_define_main():
    with pytest.raises(UnresolvedReference):
        parse("fn helper() -> int { return 1; }")


# ---------------------------------------------------------------- goals

@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_goal_count_matches_token_oracle(name):
    source = subject_source(name)
    assert len(enumerate_goals(parse(source))) == token_oracle(source)


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_per_function_goals_match_walk_oracle(name):
    p = load_subject(name)
    for fn in p.functions:
        assert len(goals_in_function(p, fn.name)) == 2 * walk_oracle(fn.body)


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_goals_partition_by_function(name):
    p = load_subject(name)
    union = set()
    total = 0
    for fn in p.functions:
        goals = goals_in_function(p, fn.name)
        total += len(goals)
        union |= goals
    assert union == enumerate_goals(p)
    assert total == len(union), "per-function goal sets overlap"


def test_goal_string_form_round_trips():
    p = load_subject("mini_sed")
    for g in enumerate_goals(p):
        assert BranchGoal.parse(str(g)) == g


def test_unknown_function_is_rejected():
    from carvelift.lang.errors import UnknownFunction
    with pytest.raises(UnknownFunction):
        goals_in_function(load_subject("keycheck"), "no_such_fn")


# ---------------------------------------------------------------- stability

def generated_sources(count: int) -> list[str]:
    """The first `count` programs of the generated-program goldens."""
    master = Rng(GEN_SEED)
    return [generate(master.split()) for _ in range(count)]


ROUND_TRIP_SOURCES = {
    **{name: subject_source(name) for name in SUBJECT_NAMES},
    **{f"nested-{n}": source for n, source in enumerate(
        nested_sources(MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH))},
    "else-if-chain": main_source(else_if_chain(MAX_ELSE_IF)),
    "else-if-chain-then-a-block": main_source(
        else_if_chain(MAX_ELSE_IF - 1) + "    else { if (k == 200) { print(1); }"
        " else if (k == 201) { print(2); } }\n"),
    **{f"generated-{n}": source for n, source in enumerate(generated_sources(5))},
}


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES.values(), ids=ROUND_TRIP_SOURCES)
def test_pretty_print_round_trip_is_structurally_identical(source):
    p1 = parse(source)
    printed = pretty_print(p1)
    p2 = parse(printed)
    assert pretty_print(p2) == printed
    assert enumerate_goals(p2) == enumerate_goals(p1)
    assert [f.name for f in p2.functions] == [f.name for f in p1.functions]


def test_pretty_print_keeps_the_parentheses_of_a_compared_comparison():
    source = "fn main() { let x = (1 < 2) == (3 >= 4); let y = 1 - (2 - 3); }\n"
    text = pretty_print(parse(source))
    assert "(1 < 2) == (3 >= 4)" in text and "1 - (2 - 3)" in text
    assert pretty_print(parse(text)) == text


def test_statement_ids_are_stable_and_unique():
    source = subject_source("mini_cut")
    p1, p2 = parse(source), parse(source)
    ids1 = [s.stmt_id for f in p1.functions for s in iter_stmts(f.body)]
    ids2 = [s.stmt_id for f in p2.functions for s in iter_stmts(f.body)]
    assert ids1 == ids2
    assert len(ids1) == len(set(ids1))
    assert min(ids1) >= 1


# ------------------------------------------------------- nesting limits

def test_programs_nested_to_the_limits_parse_and_one_deeper_do_not():
    # Nested whiles, nested ifs, an else-if chain, and an expression of
    # parentheses around operators; then bare parentheses.
    at_limit = nested_sources(MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH)
    past = nested_sources(MAX_BLOCK_DEPTH + 1, MAX_EXPR_DEPTH + 1)
    del past[2]     # its chain of MAX_BLOCK_DEPTH links is no limit's
    at_limit.append(main_source(else_if_chain(MAX_ELSE_IF)))
    past.append(main_source(else_if_chain(MAX_ELSE_IF + 1)))
    parens = "fn main() {{ let x = {}1{}; }}"
    at_limit.append(parens.format("(" * (MAX_EXPR_DEPTH - 1), ")" * (MAX_EXPR_DEPTH - 1)))
    past.append(parens.format("(" * MAX_EXPR_DEPTH, ")" * MAX_EXPR_DEPTH))
    for source in at_limit:
        parse(source)
    for source in past:
        with pytest.raises(MiniSyntaxError, match="nest"):
            parse(source)


def test_the_deepest_program_the_limits_accept_parses_within_450_frames():
    """19 loops around an if with MAX_ELSE_IF links, the last link's test
    in 62 pairs of parentheses: every limit reached at once.  The parser
    spends no frame per else-if link and 5 per pair of parentheses, so
    this takes about 380 frames above the caller."""
    loops = MAX_BLOCK_DEPTH - 1
    parens = MAX_EXPR_DEPTH - 2     # around k == n, itself 2 deep
    test = "(" * parens + f"k == {MAX_ELSE_IF}" + ")" * parens
    chain = else_if_chain(MAX_ELSE_IF - 1) + f"    else if ({test}) {{ print(k); }}\n"
    source = main_source("while (k < 0) { " * loops + chain + "}" * loops)
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 450)
    try:
        parse(source)
    finally:
        sys.setrecursionlimit(limit)


DEEP_SOURCES = {
    "parentheses": "fn main() { let x = " + "(" * 2000 + "1" + ")" * 2000 + "; }",
    "unary": "fn main() { let x = " + "-" * 2000 + "1; }",
    "sum": "fn main() { let x = " + " + ".join(["1"] * 2000) + "; }",
    "calls": ("fn f(x: int) -> int { return x; }\nfn main() { let x = "
              + "f(" * 500 + "1" + ")" * 500 + "; }"),
    "ifs": "fn main() { " + "if (1) { " * 1000 + "}" * 1000 + " }",
    "else-ifs": "fn main() { if (1) { } " + "else if (1) { } " * 1000 + "}",
    "whiles": "fn main() { " + "while (0) { " * 1000 + "}" * 1000 + " }",
}


@pytest.mark.parametrize("source", DEEP_SOURCES.values(), ids=DEEP_SOURCES)
def test_deep_nesting_is_a_syntax_error_not_a_recursion_error(source):
    with pytest.raises(MiniSyntaxError, match="nest"):
        parse(source)


# ------------------------------------------------------- parse outcomes

MUTANT_SEED, MUTANTS = 2024, 300
MUTANT_TOKENS = ["(", ")", "<", "==", "&&", "||", "-", "!", "+", "*", "[", "]",
                 ".", ",", "else", "if"]
PARSE_OUTCOMES_DIGEST = "c5e502d31461aeffc369564029e8129fba1592d1ed34c330f19e4b4928ad8574"


def token_spans(source: str) -> list[tuple[int, int]]:
    """Where each token of `source` starts and ends, the end of text last."""
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    spans = []
    for t in tokenize(source):
        start = line_starts[t.pos.line - 1] + t.pos.col - 1
        spans.append((start, start + len(t.text)))
    return spans


def token_mutant(source: str, spans: list, rng: Rng) -> str:
    """`source` with one token deleted, duplicated or swapped with the
    next, or with one of MUTANT_TOKENS inserted before a token."""
    i = rng.randrange(len(spans) - 1)   # not the end of the text
    (a, b), (c, d) = spans[i], spans[i + 1]
    edit = rng.randrange(4)
    if edit == 0:
        return source[:a] + source[b:]
    if edit == 1:
        return source[:b] + " " + source[a:b] + source[b:]
    if edit == 2:
        return source[:a] + source[c:d] + source[b:c] + source[a:b] + source[d:]
    return source[:a] + rng.choice(MUTANT_TOKENS) + " " + source[a:]


def parse_outcome(source: str) -> str:
    """The program's repr, or the diagnostic's class, position and message."""
    try:
        return repr(parse(source))
    except MiniLangError as e:
        return repr((type(e).__name__, e.pos, e.message))


def test_parse_outcomes_match_the_pinned_digest():
    """Every source gives the same program or the same diagnostic: the
    subjects, the goldens' generated programs, the programs nested to each
    limit and one past it, the deep sources, and token mutants of the
    subjects and generated programs.  Any exception but a MiniLangError
    fails the test."""
    sources = [subject_source(n) for n in SUBJECT_NAMES] + generated_sources(60)
    spans = [token_spans(s) for s in sources]
    rng = Rng(MUTANT_SEED)
    mutants = []
    for _ in range(MUTANTS):
        k = rng.randrange(len(sources))
        mutants.append(token_mutant(sources[k], spans[k], rng))
    for blocks, depth, links in ((MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, MAX_ELSE_IF),
                                 (MAX_BLOCK_DEPTH + 1, MAX_EXPR_DEPTH + 1, MAX_ELSE_IF + 1)):
        sources += nested_sources(blocks, depth) + [main_source(else_if_chain(links))]
    outcomes = [parse_outcome(s) for s in sources + list(DEEP_SOURCES.values()) + mutants]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == PARSE_OUTCOMES_DIGEST


def test_bundled_subjects_nest_within_half_the_limits(monkeypatch):
    from carvelift.lang import parser
    monkeypatch.setattr(parser, "MAX_BLOCK_DEPTH", MAX_BLOCK_DEPTH // 2)
    monkeypatch.setattr(parser, "MAX_EXPR_DEPTH", MAX_EXPR_DEPTH // 2)
    monkeypatch.setattr(parser, "MAX_ELSE_IF", MAX_ELSE_IF // 2)
    for name in SUBJECT_NAMES:
        parse(subject_source(name))


# ------------------------------------------------------- integer literals

def run_main(body):
    from carvelift.inputs import SystemInput
    from carvelift.vm.interp import run_system
    r = run_system(parse("fn main() -> int { " + body + " return 0; }"),
                   SystemInput((), b""))
    assert r.status.kind == "exit"
    return r.output


@pytest.mark.parametrize("literal,value", [
    pytest.param("9223372036854775807", 2**63 - 1, id="int64-max"),
    pytest.param("9223372036854775808", -2**63, id="2^63"),
    pytest.param("18446744073709551621", 5, id="2^64+5"),
    pytest.param("99999999999999999999999", 99999999999999999999999 % 2**64,
                 id="23-digits"),
    # 10^5000 - 1, and 2^64 divides 10^5000
    pytest.param("9" * 5000, -1, id="5000-nines"),
    pytest.param("0" * 4999 + "7", 7, id="5000-digits"),
])
def test_integer_literals_hold_64_bit_values(literal, value):
    assert tokenize(literal)[0].value == value
    assert run_main(f"print({literal});") == f"{value}\n".encode()
    program = parse(f"fn main() {{ let x = {literal}; }}")
    for p in (program, parse(pretty_print(program))):     # printed, read back
        assert p.function("main").body[0].value.value == value


def test_int64_min_is_written_as_minus_two_to_the_63():
    assert run_main("print(-9223372036854775808); print(-9223372036854775807 - 1);") \
        == b"-9223372036854775808\n-9223372036854775808\n"
