"""Recursive-descent parser and static checks.

``parse`` is pure: the same source text always yields the same Program,
with the same statement ids, or raises the same diagnostic.
"""

from __future__ import annotations

from .ast import (
    ENTRY, EArrayLit, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt,
    ENull, ERecordLit, EUnary, EVar, Expr, FunctionDef, GlobalDef, Pos, Program,
    RecordDef, SAssign, SExpr, SIf, SIndexSet, SLet, SReturn, SWhile, Stmt,
    TArray, TBytes, TFloat, TInt, TRecord, TRef, Type,
    number_statements, stmt_exprs, walk_expr,
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

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
        fields: list[tuple[str, Type]] = []
        while not self.at("punct", "}"):
            fname = self.expect("ident").text
            self.expect("punct", ":")
            fields.append((fname, self.type_expr()))
            if not self.accept("punct", ","):
                break
        self.expect("punct", "}")
        return RecordDef(name, fields, pos)

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
        params: list[tuple[str, Type]] = []
        while not self.at("punct", ")"):
            pname = self.expect("ident").text
            self.expect("punct", ":")
            params.append((pname, self.type_expr()))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        ret = None
        if self.accept("punct", "->"):
            ret = self.type_expr()
        body = self.block()
        return FunctionDef(name, params, ret, body, pos)

    def type_expr(self) -> Type:
        t = self.peek()
        if self.accept("keyword", "int"):
            return TInt()
        if self.accept("keyword", "float"):
            return TFloat()
        if self.accept("keyword", "bytes"):
            return TBytes()
        if self.accept("keyword", "ref"):
            return TRef(self.type_expr())
        if self.accept("punct", "["):
            elem = self.type_expr()
            self.expect("punct", "]")
            return TArray(elem)
        if t.kind == "ident":
            self.next()
            return TRecord(t.text)
        raise MiniSyntaxError(t.pos, f"expected a type, found {t.text or t.kind!r}")

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
            body = self.block()
            return SWhile(t.pos, cond, body)
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
        pos = self.expect("keyword", "if").pos
        self.expect("punct", "(")
        cond = self.expr()
        self.expect("punct", ")")
        then_body = self.block()
        else_body = None
        if self.accept("keyword", "else"):
            if self.at("keyword", "if"):
                else_body = [self.if_stmt()]
            else:
                else_body = self.block()
        return SIf(pos, cond, then_body, else_body)

    # ---------------------------------------------------------- expressions

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.at("punct", "||"):
            pos = self.next().pos
            e = EBinary(pos, "||", e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.cmp_expr()
        while self.at("punct", "&&"):
            pos = self.next().pos
            e = EBinary(pos, "&&", e, self.cmp_expr())
        return e

    def cmp_expr(self) -> Expr:
        e = self.add_expr()
        if self.peek().text in ("==", "!=", "<", "<=", ">", ">="):
            op = self.next()
            e = EBinary(op.pos, op.text, e, self.add_expr())
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.peek().text in ("+", "-") and self.peek().kind == "punct":
            op = self.next()
            e = EBinary(op.pos, op.text, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary_expr()
        while self.peek().text in ("*", "/", "%") and self.peek().kind == "punct":
            op = self.next()
            e = EBinary(op.pos, op.text, e, self.unary_expr())
        return e

    def unary_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "punct" and t.text in ("-", "!"):
            self.next()
            return EUnary(t.pos, t.text, self.unary_expr())
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        e = self.primary_expr()
        while True:
            if self.at("punct", "["):
                pos = self.next().pos
                idx = self.expr()
                self.expect("punct", "]")
                e = EIndex(pos, e, idx)
            elif self.at("punct", "."):
                pos = self.next().pos
                name = self.expect("ident").text
                e = EField(pos, e, name)
            else:
                return e

    def primary_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return EInt(t.pos, t.value)
        if t.kind == "float":
            self.next()
            return EFloat(t.pos, t.value)
        if t.kind == "bytes":
            self.next()
            return EBytes(t.pos, t.value)
        if self.accept("keyword", "null"):
            return ENull(t.pos)
        if self.accept("punct", "("):
            e = self.expr()
            self.expect("punct", ")")
            return e
        if self.at("punct", "["):
            self.next()
            items = []
            while not self.at("punct", "]"):
                items.append(self.expr())
                if not self.accept("punct", ","):
                    break
            self.expect("punct", "]")
            return EArrayLit(t.pos, items)
        if t.kind == "ident":
            self.next()
            if self.at("punct", "("):
                self.next()
                args = []
                while not self.at("punct", ")"):
                    args.append(self.expr())
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ")")
                return ECall(t.pos, t.text, args)
            if self.at("punct", "{"):
                self.next()
                fields = []
                while not self.at("punct", "}"):
                    fname = self.expect("ident").text
                    self.expect("punct", ":")
                    fields.append((fname, self.expr()))
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", "}")
                return ERecordLit(t.pos, t.text, fields)
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


def _check_types_resolve(program: Program, ty: Type, pos: Pos) -> None:
    if isinstance(ty, TRecord) and program.record(ty.name) is None:
        raise UnresolvedReference(pos, f"unknown record type {ty.name!r}")
    if isinstance(ty, (TArray, TRef)):
        _check_types_resolve(program, ty.elem, pos)


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

    def check_body(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, SAssign) and s.name not in bound:
                raise UnresolvedReference(s.pos, f"assignment to unbound name {s.name!r}")
            for e in stmt_exprs(s):
                _check_expr(program, e, bound, fn_names, True)
            if isinstance(s, SLet):
                bound.add(s.name)
            elif isinstance(s, SIf):
                check_body(s.then_body)
                if s.else_body is not None:
                    check_body(s.else_body)
            elif isinstance(s, SWhile):
                check_body(s.body)

    check_body(fn.body)


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
