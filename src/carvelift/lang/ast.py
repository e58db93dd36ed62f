"""AST for the bundled mini-language.

Programs are a flat list of record declarations, global declarations, and
function definitions.  Statements carry a program-wide id assigned by
pre-order traversal after parsing; branch goals are keyed on those ids, so
they are stable across reparses of the same source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class Pos(NamedTuple):
    line: int
    col: int


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TFloat(Type):
    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class TBytes(Type):
    def __str__(self) -> str:
        return "bytes"


@dataclass(frozen=True)
class TArray(Type):
    elem: Type

    def __str__(self) -> str:
        return f"[{self.elem}]"


@dataclass(frozen=True)
class TRef(Type):
    elem: Type

    def __str__(self) -> str:
        return f"ref {self.elem}"


@dataclass(frozen=True)
class TRecord(Type):
    name: str

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------- expressions

@dataclass
class Expr:
    pos: Pos


@dataclass
class EInt(Expr):
    value: int


@dataclass
class EFloat(Expr):
    value: float


@dataclass
class EBytes(Expr):
    value: bytes


@dataclass
class ENull(Expr):
    pass


@dataclass
class EVar(Expr):
    name: str


@dataclass
class EUnary(Expr):
    op: str
    operand: Expr


@dataclass
class EBinary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class ECall(Expr):
    name: str
    args: list[Expr]


@dataclass
class EIndex(Expr):
    obj: Expr
    index: Expr


@dataclass
class EField(Expr):
    obj: Expr
    name: str


@dataclass
class ERecordLit(Expr):
    name: str
    fields: list[tuple[str, Expr]]


@dataclass
class EArrayLit(Expr):
    items: list[Expr]


# ---------------------------------------------------------------- statements

@dataclass
class Stmt:
    pos: Pos
    stmt_id: int = field(default=-1, init=False, compare=False)


@dataclass
class SLet(Stmt):
    name: str
    value: Expr


@dataclass
class SAssign(Stmt):
    name: str
    value: Expr


@dataclass
class SIndexSet(Stmt):
    obj: Expr
    index: Expr
    value: Expr


@dataclass
class SIf(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: Optional[list[Stmt]]


@dataclass
class SWhile(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class SReturn(Stmt):
    value: Optional[Expr]


@dataclass
class SExpr(Stmt):
    value: Expr


# ---------------------------------------------------------------- top level

@dataclass
class RecordDef:
    name: str
    fields: list[tuple[str, Type]]
    pos: Pos


@dataclass
class GlobalDef:
    name: str
    type: Type
    init: Expr
    pos: Pos


@dataclass
class FunctionDef:
    name: str
    params: list[tuple[str, Type]]
    ret: Optional[Type]
    body: list[Stmt]
    pos: Pos


# The function every system run starts in; it takes no parameters.
ENTRY = "main"


@dataclass
class Program:
    records: list[RecordDef]
    globals: list[GlobalDef]
    functions: list[FunctionDef]
    # The VM's code for this program, built on its first run
    # (vm/interp.py); kept here so it lives exactly as long as the
    # program does.
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)

    def function(self, name: str) -> FunctionDef | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def record(self, name: str) -> RecordDef | None:
        for r in self.records:
            if r.name == name:
                return r
        return None


def iter_stmts(body: list[Stmt]):
    """Pre-order walk over a statement list, descending into branch bodies."""
    for s in body:
        yield s
        if isinstance(s, SIf):
            yield from iter_stmts(s.then_body)
            if s.else_body is not None:
                yield from iter_stmts(s.else_body)
        elif isinstance(s, SWhile):
            yield from iter_stmts(s.body)


def walk_expr(e: Expr):
    """Pre-order walk over an expression and all its subexpressions."""
    yield e
    if isinstance(e, EUnary):
        yield from walk_expr(e.operand)
    elif isinstance(e, EBinary):
        yield from walk_expr(e.left)
        yield from walk_expr(e.right)
    elif isinstance(e, ECall):
        for a in e.args:
            yield from walk_expr(a)
    elif isinstance(e, EIndex):
        yield from walk_expr(e.obj)
        yield from walk_expr(e.index)
    elif isinstance(e, EField):
        yield from walk_expr(e.obj)
    elif isinstance(e, ERecordLit):
        for _, v in e.fields:
            yield from walk_expr(v)
    elif isinstance(e, EArrayLit):
        for v in e.items:
            yield from walk_expr(v)


# Builtins that read the outside world.  A function that can reach one of
# these would observe a different world inside a replay, so it is never
# carved.
_INPUT_BUILTINS = ("arg", "arg_count", "read_all_input")


def stmt_exprs(s: Stmt):
    """The expressions a statement holds itself, in evaluation order."""
    if isinstance(s, (SLet, SAssign, SExpr, SReturn)):
        if s.value is not None:
            yield s.value
    elif isinstance(s, SIndexSet):
        yield s.obj
        yield s.index
        yield s.value
    elif isinstance(s, SIf):
        yield s.cond
    elif isinstance(s, SWhile):
        yield s.cond


def input_reading_functions(program: Program) -> frozenset[str]:
    """Functions that may (transitively) call an input builtin."""
    callees: dict[str, set[str]] = {}
    for fn in program.functions:
        names: set[str] = set()
        for s in iter_stmts(fn.body):
            for e in stmt_exprs(s):
                names.update(x.name for x in walk_expr(e)
                             if isinstance(x, ECall))
        callees[fn.name] = names

    tainted = {f for f, ns in callees.items()
               if any(b in ns for b in _INPUT_BUILTINS)}
    changed = True
    while changed:
        changed = False
        for f, ns in callees.items():
            if f not in tainted and ns & tainted:
                tainted.add(f)
                changed = True
    return frozenset(tainted)


def number_statements(program: Program) -> None:
    """Assign pre-order statement ids across the whole program.

    Functions are visited in source order, so ids are unique program-wide
    and stable for identical source text.
    """
    next_id = 1
    for fn in program.functions:
        for s in iter_stmts(fn.body):
            s.stmt_id = next_id
            next_id += 1
