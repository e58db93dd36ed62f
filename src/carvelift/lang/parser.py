"""Parser and static checks.

Declarations and statements are parsed by recursive descent, binary
operators by precedence climbing over one table, ``PRECEDENCE``, which
the printer reads too; an else-if chain is parsed in a loop, link by
link, and a declared type too, prefix by prefix.  ``parse`` is pure:
the same source text always yields the same Program, with the same
statement ids, or raises the same diagnostic.
"""

from __future__ import annotations

from .ast import (
    ENTRY, EArrayLit, EBinary, ECall, EField, EIndex, ELit, ERecordLit, EUnary,
    EVar, Expr, FunctionDef, GlobalDef, Pos, Program, RecordDef, SAssign, SExpr,
    SIf, SIndexSet, SLet, SReturn, SWhile, Stmt,
    iter_stmts, number_statements, stmt_exprs, subexpressions, walk_expr,
)
from .errors import DuplicateDefinition, MiniSyntaxError, UnresolvedReference
from .lexer import Token, tokenize

# name -> (min arity, max arity)
BUILTINS = {
    "arg_count": (0, 0),
    "arg": (1, 1),
    "read_all_input": (0, 0),
    "print": (1, 1),
    "len": (1, 1),
    "byte_at": (2, 2),
    "slice": (2, 3),
    "concat": (2, 2),
    "parse_int": (1, 1),
    "to_string": (1, 1),
    "alloc_array": (2, 2),
    "abort": (1, 1),
}


# Binary operators by how tightly they bind.  Each level nests to the
# left, except that comparisons do not chain: `a < b < c` is an error.
PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}
_COMPARISON, _TIGHTEST = PRECEDENCE["<"], max(PRECEDENCE.values())

# The keywords that name a type; any other base type names a record.
_BASE_TYPES = ("int", "float", "bytes")

# How deep a program may nest (docs/minilang.md).  vm/interp.py compiles
# each function to Python, which allows 20 nested loops and 99 levels of
# indentation; an else-if chain compiles, parses and prints flat, so
# only the recursive walks over the tree (`iter_stmts` and its users)
# bound its length.  Within these limits every program compiles, and no
# such walk comes near Python's recursion limit.
MAX_BLOCK_DEPTH = 20    # statement bodies inside one another
MAX_EXPR_DEPTH = 64     # expression levels, parentheses included
MAX_ELSE_IF = 128       # else-if links open at once


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.blocks = 0         # statement bodies open around the parser
        self.links = 0          # else-if links open around the parser
        self.open = 0           # expression levels open around the parser
        self.depths = {}        # id of a node -> its depth, when above 1

    # ---------------------------------------------------------- helpers

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise MiniSyntaxError(t.pos, f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def nested(self, pos, depth: int, limit: int, what: str) -> int:
        if depth > limit:
            raise MiniSyntaxError(pos, f"{what} nest more than {limit} deep")
        return depth

    def body(self, parse):
        """A statement body (`parse()` parses it), one level deeper."""
        self.blocks = self.nested(self.peek().pos, self.blocks + 1,
                                  MAX_BLOCK_DEPTH, "statement bodies")
        stmts = parse()
        self.blocks -= 1
        return stmts

    def items(self, close: str, item) -> list:
        """`item()` for each entry of a comma-separated list that ends at
        `close`, with or without a trailing comma."""
        entries = []
        while not self.at("punct", close):
            entries.append(item())
            if not self.accept("punct", ","):
                break
        self.expect("punct", close)
        return entries

    def field(self, value) -> tuple:
        """`name: value()`, as a pair."""
        name = self.expect("ident").text
        self.expect("punct", ":")
        return name, value()

    def node(self, e: Expr, depth: int = 0) -> Expr:
        """`e`, one level deeper than the deepest of its operands, or at
        `depth` when that is given."""
        depth = depth or 1 + max((self.depths.get(id(x), 1) for x in subexpressions(e)),
                                 default=0)
        self.depths[id(e)] = self.nested(e.pos, depth, MAX_EXPR_DEPTH, "expressions")
        return e

    # ---------------------------------------------------------- top level

    def program(self) -> Program:
        records: list[RecordDef] = []
        globals_: list[GlobalDef] = []
        functions: list[FunctionDef] = []
        while not self.at("eof"):
            t = self.peek()
            if self.at("keyword", "record"):
                records.append(self.record_def())
            elif self.at("keyword", "global"):
                globals_.append(self.global_def())
            elif self.at("keyword", "fn"):
                functions.append(self.function_def())
            else:
                raise MiniSyntaxError(t.pos, f"expected a declaration, found {t.text!r}")
        return Program(records, globals_, functions)

    def record_def(self) -> RecordDef:
        pos = self.expect("keyword", "record").pos
        name = self.expect("ident").text
        self.expect("punct", "{")
        return RecordDef(name, self.items("}", lambda: self.field(self.type_expr)), pos)

    def global_def(self) -> GlobalDef:
        pos = self.expect("keyword", "global").pos
        name = self.expect("ident").text
        self.expect("punct", ":")
        ty = self.type_expr()
        self.expect("punct", "=")
        init = self.expr()
        self.expect("punct", ";")
        return GlobalDef(name, ty, init, pos)

    def function_def(self) -> FunctionDef:
        pos = self.expect("keyword", "fn").pos
        name = self.expect("ident").text
        self.expect("punct", "(")
        params = self.items(")", lambda: self.field(self.type_expr))
        ret = None
        if self.accept("punct", "->"):
            ret = self.type_expr()
        body = self.block()
        return FunctionDef(name, params, ret, body, pos)

    def type_expr(self) -> str:
        """A declared type, as its canonical text: `ref` and `[` prefixes,
        a base type, then a `]` for each `[`.  It is read in a loop, so
        it may nest to any depth."""
        prefix = ""
        while t := self.accept("keyword", "ref") or self.accept("punct", "["):
            prefix += "ref " if t.text == "ref" else "["
        t = self.next()
        if t.kind != "ident" and t.text not in _BASE_TYPES:
            raise MiniSyntaxError(t.pos, f"expected a type, found {t.text or t.kind!r}")
        closers = "]" * prefix.count("[")
        for _ in closers:
            self.expect("punct", "]")
        return prefix + t.text + closers

    # ---------------------------------------------------------- statements

    def block(self) -> list[Stmt]:
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        while not self.at("punct", "}"):
            stmts.append(self.stmt())
        self.expect("punct", "}")
        return stmts

    def stmt(self) -> Stmt:
        t = self.peek()
        if self.at("keyword", "let"):
            self.next()
            name = self.expect("ident").text
            self.expect("punct", "=")
            value = self.expr()
            self.expect("punct", ";")
            return SLet(t.pos, name, value)
        if self.at("keyword", "if"):
            return self.if_stmt()
        if self.at("keyword", "while"):
            self.next()
            self.expect("punct", "(")
            cond = self.expr()
            self.expect("punct", ")")
            return SWhile(t.pos, cond, self.body(self.block))
        if self.at("keyword", "return"):
            self.next()
            value = None
            if not self.at("punct", ";"):
                value = self.expr()
            self.expect("punct", ";")
            return SReturn(t.pos, value)
        # Assignment or expression statement: parse an expression, then look
        # for '='.  Only plain names and index expressions are assignable.
        e = self.expr()
        if self.accept("punct", "="):
            value = self.expr()
            self.expect("punct", ";")
            if isinstance(e, EVar):
                return SAssign(t.pos, e.name, value)
            if isinstance(e, EIndex):
                return SIndexSet(t.pos, e.obj, e.index, value)
            raise MiniSyntaxError(t.pos, "assignment target must be a name or an index")
        self.expect("punct", ";")
        return SExpr(t.pos, e)

    def if_stmt(self) -> SIf:
        """An if and its else-if links: each link is the one statement of
        the else body of the link before it."""
        chain: list[SIf] = []
        while True:
            pos = self.expect("keyword", "if").pos
            self.expect("punct", "(")
            cond = self.expr()
            self.expect("punct", ")")
            link = SIf(pos, cond, self.body(self.block), None)
            if chain:
                chain[-1].else_body = [link]
            chain.append(link)
            if not self.accept("keyword", "else"):
                break
            if not self.at("keyword", "if"):
                link.else_body = self.body(self.block)
                break
            self.links = self.nested(self.peek().pos, self.links + 1,
                                     MAX_ELSE_IF, "else-if links")
        self.links -= len(chain) - 1
        return chain[0]

    # ---------------------------------------------------------- expressions

    def expr(self) -> Expr:
        """An expression, one level deeper than the one around it."""
        self.open = self.nested(self.peek().pos, self.open + 1,
                                MAX_EXPR_DEPTH, "expressions")
        e = self.binary(1)
        self.open -= 1
        return e

    def binary(self, lowest: int) -> Expr:
        """Operands joined by operators of precedence `lowest` or above.
        An operator's right operand binds tighter than it; the next
        operator may bind as tightly, unless both are comparisons."""
        e, highest = self.unary_expr(), _TIGHTEST
        while lowest <= (prec := PRECEDENCE.get(self.peek().text, 0)) <= highest:
            op = self.next()    # only punctuation has an operator's text
            e = self.node(EBinary(op.pos, op.text, e, self.binary(prec + 1)))
            highest = prec - 1 if prec == _COMPARISON else prec
        return e

    def unary_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "punct" and t.text in ("-", "!"):
            self.next()
            self.open = self.nested(t.pos, self.open + 1, MAX_EXPR_DEPTH, "expressions")
            e = self.node(EUnary(t.pos, t.text, self.unary_expr()))
            self.open -= 1
            return e
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        e = self.primary_expr()
        while True:
            if self.at("punct", "["):
                pos = self.next().pos
                idx = self.expr()
                self.expect("punct", "]")
                e = self.node(EIndex(pos, e, idx))
            elif self.at("punct", "."):
                pos = self.next().pos
                name = self.expect("ident").text
                e = self.node(EField(pos, e, name))
            else:
                return e

    def primary_expr(self) -> Expr:
        t = self.peek()
        if t.kind in ("int", "float", "bytes"):
            self.next()
            return ELit(t.pos, t.value)
        if self.accept("keyword", "null"):
            return ELit(t.pos, None)
        if self.accept("punct", "("):
            e = self.expr()
            self.expect("punct", ")")
            return self.node(e, self.depths.get(id(e), 1) + 1)   # a level too
        if self.accept("punct", "["):
            return self.node(EArrayLit(t.pos, self.items("]", self.expr)))
        if t.kind == "ident":
            self.next()
            if self.accept("punct", "("):
                return self.node(ECall(t.pos, t.text, self.items(")", self.expr)))
            if self.accept("punct", "{"):
                fields = self.items("}", lambda: self.field(self.expr))
                return self.node(ERecordLit(t.pos, t.text, fields))
            return EVar(t.pos, t.text)
        raise MiniSyntaxError(t.pos, f"expected an expression, found {t.text or t.kind!r}")


# -------------------------------------------------------------- static checks

def _check_duplicates(program: Program) -> None:
    seen: dict[str, str] = {}
    for r in program.records:
        if r.name in seen:
            raise DuplicateDefinition(r.pos, f"duplicate definition of {r.name!r}")
        seen[r.name] = "record"
        fnames = [f for f, _ in r.fields]
        for f in fnames:
            if fnames.count(f) > 1:
                raise DuplicateDefinition(r.pos, f"duplicate field {f!r} in record {r.name!r}")
    for g in program.globals:
        if g.name in seen:
            raise DuplicateDefinition(g.pos, f"duplicate definition of {g.name!r}")
        seen[g.name] = "global"
    for fn in program.functions:
        if fn.name in seen:
            raise DuplicateDefinition(fn.pos, f"duplicate definition of {fn.name!r}")
        seen[fn.name] = "fn"
        pnames = [p for p, _ in fn.params]
        for p in pnames:
            if pnames.count(p) > 1:
                raise DuplicateDefinition(fn.pos, f"duplicate parameter {p!r} in {fn.name!r}")


def _check_types_resolve(program: Program, ty: str, pos: Pos) -> None:
    """A declared type names a record only as its base, the word after
    its prefixes."""
    name = ty.split()[-1].strip("[]")
    if name not in _BASE_TYPES and program.record(name) is None:
        raise UnresolvedReference(pos, f"unknown record type {name!r}")


def _check_expr(program: Program, e: Expr, bound: set[str], fn_names: set[str],
                allow_user_calls: bool) -> None:
    for node in walk_expr(e):
        if isinstance(node, EVar):
            if node.name not in bound:
                raise UnresolvedReference(node.pos, f"unbound name {node.name!r}")
        elif isinstance(node, ECall):
            if node.name in BUILTINS:
                lo, hi = BUILTINS[node.name]
                if not lo <= len(node.args) <= hi:
                    raise UnresolvedReference(
                        node.pos, f"builtin {node.name!r} takes {lo}..{hi} arguments")
            elif node.name in fn_names:
                if not allow_user_calls:
                    raise UnresolvedReference(
                        node.pos, "global initializers may not call functions")
                target = program.function(node.name)
                assert target is not None
                if len(node.args) != len(target.params):
                    raise UnresolvedReference(
                        node.pos,
                        f"{node.name!r} takes {len(target.params)} arguments, got {len(node.args)}")
            else:
                raise UnresolvedReference(node.pos, f"unknown function {node.name!r}")
        elif isinstance(node, ERecordLit):
            rec = program.record(node.name)
            if rec is None:
                raise UnresolvedReference(node.pos, f"unknown record type {node.name!r}")
            declared = [f for f, _ in rec.fields]
            given = [f for f, _ in node.fields]
            if sorted(declared) != sorted(given):
                raise UnresolvedReference(
                    node.pos,
                    f"record {node.name!r} literal fields {given} do not match {declared}")


def _check_function(program: Program, fn: FunctionDef, global_names: set[str],
                    fn_names: set[str]) -> None:
    for _, ty in fn.params:
        _check_types_resolve(program, ty, fn.pos)
    if fn.ret is not None:
        _check_types_resolve(program, fn.ret, fn.pos)

    # A let makes its name visible from that point to the end of the
    # function; there is no block scoping.
    bound = {p for p, _ in fn.params} | global_names
    for s in iter_stmts(fn.body):
        if isinstance(s, SAssign) and s.name not in bound:
            raise UnresolvedReference(s.pos, f"assignment to unbound name {s.name!r}")
        for e in stmt_exprs(s):
            _check_expr(program, e, bound, fn_names, True)
        if isinstance(s, SLet):
            bound.add(s.name)


def parse(source: str) -> Program:
    """Parse and statically check a program.

    Raises MiniSyntaxError, DuplicateDefinition, or UnresolvedReference with
    a source position.  Returns a Program with statement ids assigned.
    """
    program = _Parser(tokenize(source)).program()
    _check_duplicates(program)

    fn_names = {f.name for f in program.functions}
    global_names = {g.name for g in program.globals}

    for r in program.records:
        for _, ty in r.fields:
            _check_types_resolve(program, ty, r.pos)

    # Globals are initialized in declaration order and may reference
    # earlier globals but never call user functions.
    visible: set[str] = set()
    for g in program.globals:
        _check_types_resolve(program, g.type, g.pos)
        _check_expr(program, g.init, visible, fn_names, False)
        visible.add(g.name)

    main = program.function(ENTRY)
    if main is None:
        raise UnresolvedReference(Pos(1, 1), f"program does not define {ENTRY!r}")
    if main.params:
        raise UnresolvedReference(main.pos, f"{ENTRY!r} must take no parameters")

    for fn in program.functions:
        if fn.name in BUILTINS:
            raise DuplicateDefinition(fn.pos, f"{fn.name!r} shadows a builtin")
        _check_function(program, fn, global_names, fn_names)

    number_statements(program)
    return program
