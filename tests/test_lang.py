"""Frontend tests.

Goal enumeration is checked against two independent oracles: a keyword
count over the raw token stream, and a hand-rolled recursive walk over
statement bodies that never touches the goal module's own traversal.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from carvelift.lang import ast as lang_ast
from carvelift.lang.ast import SIf, SWhile, int_locals, iter_stmts
from carvelift.lang.errors import (
    DuplicateDefinition,
    MiniLangError,
    MiniSyntaxError,
    UnresolvedReference,
)
from carvelift.lang.goals import BranchGoal, enumerate_goals, goals_in_function
from carvelift.lang.lexer import KEYWORDS, PUNCT, tokenize
from carvelift.lang.parser import BUILTINS, MAX_BLOCK_DEPTH, MAX_ELSE_IF, MAX_EXPR_DEPTH, parse
from carvelift.lang.pretty import pretty_print
from carvelift.rng import Rng
from carvelift.vm import ops

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
    # Float literals whose repr() the lexer cannot read: 1e+16, 1e-05, inf.
    "float-1e16": "fn main() { let x = 10000000000000000.0; }\n",
    "float-1e-5": "fn main() { let x = 0.00001; }\n",
    "float-overflow": "fn main() { let x = " + "9" * 400 + ".0; }\n",
}


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES.values(), ids=ROUND_TRIP_SOURCES)
def test_pretty_print_round_trip_is_structurally_identical(source):
    p1 = parse(source)
    printed = pretty_print(p1)
    p2 = parse(printed)
    assert pretty_print(p2) == printed
    assert enumerate_goals(p2) == enumerate_goals(p1)
    assert [f.name for f in p2.functions] == [f.name for f in p1.functions]


@pytest.mark.parametrize("literal,text", [
    pytest.param("10000000000000000.0", "10000000000000000.0", id="1e16"),
    pytest.param("0.00001", "0.00001", id="1e-5"),
    pytest.param("2.50", "2.5", id="shortest"),
    pytest.param("123456789012345678901234.0", "123456789012345690000000.0", id="24-digits"),
    pytest.param("9" * 400 + ".0", "1" + "0" * 309 + ".0", id="overflow"),
])
def test_float_literals_print_as_literals_that_read_back_the_same_value(literal, text):
    program = parse(f"fn main() {{ let x = {literal}; }}")
    value = program.function("main").body[0].value.value
    printed = pretty_print(program)
    assert f"let x = {text};" in printed
    assert parse(printed).function("main").body[0].value.value == value


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


# A declaration at line 2, column 3, in each place a type can appear:
# its text, the column of its type, and the token after `ref [int` there
# and its column.
TYPE_PLACES = {
    "global": ("global g: {} = null;", 13, "=", 22),
    "parameter": ("fn f(x: {}) { }", 11, ")", 19),
    "return": ("fn f() -> {} { }", 13, "{", 22),
    "field": ("record R { x: {} }", 17, "}", 26),
}


# A type 4,000 levels deep: 2,000 refs and 2,000 pairs of brackets.
DEEP_TYPE = "ref [" * 2000 + "P" + "]" * 2000


@pytest.mark.parametrize("place", TYPE_PLACES)
def test_type_annotations_parse_and_print_at_any_depth(place):
    declaration = TYPE_PLACES[place][0].replace("{}", DEEP_TYPE, 1)
    printed = pretty_print(parse(f"record P {{ }}\n{declaration}\nfn main() {{ }}\n"))
    assert printed.count(DEEP_TYPE) == 1
    assert pretty_print(parse(printed)) == printed


@pytest.mark.parametrize("place", TYPE_PLACES)
def test_each_type_diagnostic_names_its_class_position_and_message(place):
    declaration, col, after, after_col = TYPE_PLACES[place]
    cases = [
        ("[]", MiniSyntaxError, (2, col + 1), "expected a type, found ']'"),
        ("ref [int", MiniSyntaxError, (2, after_col), f"expected ']', found {after!r}"),
        ("[ref Q]", UnresolvedReference, (2, 3), "unknown record type 'Q'"),
    ]
    for ty, error, pos, message in cases:
        with pytest.raises(error) as e:
            parse("fn main() { }\n  " + declaration.replace("{}", ty, 1))
        assert (type(e.value), tuple(e.value.pos), e.value.message) == (error, pos, message)


# One program per static-check diagnostic outside the type checks: its
# source, and the class, position and message it must raise.
STATIC_DIAGNOSTICS = {
    "assignment-target": ("fn main() {\n  1 = 2;\n}", MiniSyntaxError, (2, 3),
                          "assignment target must be a name or an index"),
    "duplicate-record": ("record R { x: int }\nrecord R { y: int }\nfn main() { }",
                         DuplicateDefinition, (2, 1), "duplicate definition of 'R'"),
    "duplicate-parameter": ("fn f(a: int, a: int) { }\nfn main() { }",
                            DuplicateDefinition, (1, 1), "duplicate parameter 'a' in 'f'"),
    "initializer-call": ("fn f() -> int { return 1; }\nglobal g: int = f();\nfn main() { }",
                         UnresolvedReference, (2, 17),
                         "global initializers may not call functions"),
    "call-arity": ("fn f(a: int) -> int { return a; }\nfn main() {\n  f(1, 2);\n}",
                   UnresolvedReference, (3, 3), "'f' takes 1 arguments, got 2"),
    "record-literal-type": ("fn main() {\n  let r = Q { x: 1 };\n}",
                            UnresolvedReference, (2, 11), "unknown record type 'Q'"),
    "record-literal-fields": (
        "record R { x: int, y: int }\nfn main() {\n  let r = R { x: 1, z: 2 };\n}",
        UnresolvedReference, (3, 11),
        "record 'R' literal fields ['x', 'z'] do not match ['x', 'y']"),
    "unbound-assignment": ("fn main() {\n  x = 1;\n}", UnresolvedReference, (2, 3),
                           "assignment to unbound name 'x'"),
    "main-parameters": ("fn main(a: int) { }", UnresolvedReference, (1, 1),
                        "'main' must take no parameters"),
    "shadowed-builtin": ("fn len(a: int) -> int { return a; }\nfn main() { }",
                         DuplicateDefinition, (1, 1), "'len' shadows a builtin"),
}


@pytest.mark.parametrize("case", STATIC_DIAGNOSTICS)
def test_each_static_diagnostic_names_its_class_position_and_message(case):
    source, error, pos, message = STATIC_DIAGNOSTICS[case]
    with pytest.raises(MiniLangError) as e:
        parse(source)
    assert (type(e.value), tuple(e.value.pos), e.value.message) == (error, pos, message)


def test_type_diagnostics_come_in_declaration_order():
    with pytest.raises(UnresolvedReference, match="'C'"):
        parse("fn f(x: A) -> B { }\nglobal g: C = 1;\nfn main() { }")
    with pytest.raises(UnresolvedReference, match="'D'"):
        parse("global g: C = 1;\nrecord R { y: ref D }\nfn main() { }")
    with pytest.raises(UnresolvedReference, match="'A'"):
        parse("fn main() { }\nfn f(x: [A]) -> B { }")


# ------------------------------------------------------- lexical structure

LEXED_SOURCE = ('fn f() -> float {  # é\n\tlet s = "é\\x7F\\0\\n\\\\\\"";\r\n'
                '  return 1.5 + x_1 * 600 % 2.;\n}\n')


def test_tokens_carry_kind_text_value_and_position():
    assert [(t.kind, t.text, t.value, *t.pos) for t in tokenize(LEXED_SOURCE)] == [
        ("keyword", "fn", "fn", 1, 1), ("ident", "f", "f", 1, 4),
        ("punct", "(", "(", 1, 5), ("punct", ")", ")", 1, 6),
        ("punct", "->", "->", 1, 8), ("keyword", "float", "float", 1, 11),
        ("punct", "{", "{", 1, 17), ("keyword", "let", "let", 2, 2),
        ("ident", "s", "s", 2, 6), ("punct", "=", "=", 2, 8),
        ("bytes", '"é\\x7F\\0\\n\\\\\\""', b'\xc3\xa9\x7f\x00\n\\"', 2, 10),
        ("punct", ";", ";", 2, 25), ("keyword", "return", "return", 3, 3),
        ("float", "1.5", 1.5, 3, 10), ("punct", "+", "+", 3, 14),
        ("ident", "x_1", "x_1", 3, 16), ("punct", "*", "*", 3, 20),
        ("int", "600", 600, 3, 22), ("punct", "%", "%", 3, 26),
        ("int", "2", 2, 3, 28), ("punct", ".", ".", 3, 29),
        ("punct", ";", ";", 3, 30), ("punct", "}", "}", 4, 1),
        ("eof", "", None, 5, 1),
    ]


@pytest.mark.parametrize("source,pos,message", [
    pytest.param('let s = "abc', (1, 9), "unterminated bytes literal", id="unterminated"),
    pytest.param('let s = "ab\ncd";', (1, 9), "newline in bytes literal", id="newline"),
    pytest.param('\n  "ab\\', (2, 3), "unterminated escape", id="unterminated-escape"),
    pytest.param('x "\\x4', (1, 3), "truncated \\x escape", id="truncated-x"),
    pytest.param('"\\x4"', (1, 1), "bad \\x escape: '4\"'", id="bad-x"),
    pytest.param('"a\\q\\x"', (1, 1), "unknown escape: \\q", id="unknown-escape"),
    pytest.param("let x = 1 @ 2;", (1, 11), "unexpected character '@'", id="unexpected"),
])
def test_each_lexical_diagnostic_names_its_position_and_cause(source, pos, message):
    with pytest.raises(MiniSyntaxError) as e:
        tokenize(source)
    assert (tuple(e.value.pos), e.value.message) == (pos, message)


# Sources outside the documented grammar that an earlier, Unicode-aware
# lexer read anyway: 2² raised ValueError, ٣ was the int 3, é named a
# field that print could not write, and int(..., 16) read each \x as
# one byte, dropping the carriage return from inside the last literal.
@pytest.mark.parametrize("source,pos,message", [
    pytest.param("let x = 2²;", (1, 10), "unexpected character '²'", id="superscript"),
    pytest.param("let x = ٣;", (1, 9), "unexpected character '٣'", id="arabic-indic-digit"),
    pytest.param("record R { é: int }", (1, 12), "unexpected character 'é'", id="letter"),
    pytest.param('"\\x+f"', (1, 1), "bad \\x escape: '+f'", id="signed-x"),
    pytest.param('"\\x f"', (1, 1), "bad \\x escape: ' f'", id="spaced-x"),
    pytest.param('"\\x4\r"', (1, 1), "bad \\x escape: '4\\r'", id="x-before-cr"),
    pytest.param('fn main() { print("\ud800"); }', (1, 19), "lone surrogate in bytes literal",
                 id="lone-surrogate"),
])
def test_sources_outside_the_grammar_are_syntax_errors(source, pos, message):
    with pytest.raises(MiniSyntaxError) as e:
        parse(source)
    assert (tuple(e.value.pos), e.value.message) == (pos, message)


ROUND_TRIP_SEED, ROUND_TRIPS = 77, 3000
# The lexer's alphabet in pieces, so that most random sources lex.
LEXER_PIECES = [*KEYWORDS, *PUNCT, "x", "_a9", "Z", "0", "42", "3.5", " ", "\t", "\r",
                "\n", "# c", '"', '"ab"', "\\", "\\x", "4f", "é", "@"]


def test_each_token_sits_at_its_position_with_only_space_between():
    rng, lexed = Rng(ROUND_TRIP_SEED), 0
    for _ in range(ROUND_TRIPS):
        source = "".join(rng.choice(LEXER_PIECES) for _ in range(1 + rng.randrange(16)))
        try:
            tokens = tokenize(source)
        except MiniSyntaxError:
            continue
        lexed += 1
        end = 0
        for t, (start, stop) in zip(tokens, token_spans(source)):
            assert source[start:stop] == t.text
            assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", source[end:start])
            end = stop
        assert tokens[-1].kind == "eof" and end == len(source)
    assert lexed > ROUND_TRIPS // 4


def test_the_documented_keywords_and_punctuation_are_the_lexers():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "minilang.md").read_text()
    keywords = re.search(r"^- Keywords: `([^`]*)`", doc, re.M)[1].split()
    punct = re.search(r"^- Punctuation: `([^`]*)`", doc, re.M)[1].split()
    assert sorted(keywords) == sorted(KEYWORDS) and punct == PUNCT


def test_the_builtin_tables_agree():
    """The parser's names and arities, the VM's implementations, the
    documented signatures and the static analyses' builtin lists name the
    same builtins.  A builtin the doc lists twice takes either count."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "minilang.md").read_text()
    section = doc.split("\n## Builtins\n")[1].split("\n## ")[0]
    counts = {}
    for name, params in re.findall(r"^\| `(\w+)\(([^)]*)\)` \|", section, re.M):
        counts.setdefault(name, set()).add(len(params.split(",")) if params else 0)
    documented = {name: (min(n), max(n)) for name, n in counts.items()}
    assert documented == BUILTINS and documented["slice"] == (2, 3)
    assert set(ops.BUILTINS) == set(BUILTINS)
    assert set(lang_ast._INPUT_BUILTINS) <= set(BUILTINS)
    assert set(lang_ast._INT_BUILTINS) <= set(BUILTINS)


# ------------------------------------------------------- parse outcomes

MUTANT_SEED, MUTANTS = 2024, 300
MUTANT_TOKENS = ["(", ")", "<", "==", "&&", "||", "-", "!", "+", "*", "[", "]",
                 ".", ",", "else", "if"]
PARSE_OUTCOMES_DIGEST = "23dbd6fe2975c984b3b11889f2d8ad871bfae5ae18bcbce43d99ff90838c0da7"


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


INT_LOCALS_SOURCE = """
global g: int = 0;
fn f(p: int) -> int {
    let i = 0;
    let x = p;
    let y = p * 2;
    while (i < 10) {
        g = i;
        let c = len("ab");
        if (i == 3) { y = 1.5; }
        i = i + c;
    }
    return y;
}
fn main() { }
"""


def test_int_locals_narrows_a_loop_head_to_what_its_body_keeps():
    fn = parse(INT_LOCALS_SOURCE).function("f")
    known = int_locals(fn, {"g"})
    # let i, let x, let y, while, g = i, let c, if, y = 1.5, i = i + c, return
    before = [known[s.stmt_id] for s in iter_stmts(fn.body)]
    assert before[:3] == [set(), {"i"}, {"i"}]      # a parameter is not known
    assert before[3] == {"i"}       # y, an int on entry, turns into a float
    assert before[4] == before[5] == {"i"}      # the name of a global is not
    assert before[6] == before[8] == {"i", "c"}
    assert before[9] == {"i"}
