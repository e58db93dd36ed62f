"""AST for the bundled mini-language.

Programs are a flat list of record declarations, global declarations, and
function definitions.  A declared type is kept as its canonical text
(`int`, `ref [P]`, `[[int]]`): no stage reads more of it than the one
record it may name.  Statements carry a program-wide id assigned by
pre-order traversal after parsing; branch goals are keyed on those ids, so
they are stable across reparses of the same source.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Pos(NamedTuple):
    line: int
    col: int


class Node:
    """Base of the AST nodes.  A node's fields are what its class and
    its bases annotate, bases first.  The constructor takes them in that
    order, all but a field with a class-level default (`stmt_id`), which
    a later stage sets; `==` compares nodes of one class by the same
    fields, and `repr` shows them all.  A plain attribute
    (`Program.compiled`) is in none of the three.  Dataclasses would
    build these methods at a cost of milliseconds to every process."""

    def __init_subclass__(cls):
        names = dict.fromkeys(n for c in reversed(cls.__mro__)
                              for n in vars(c).get("__annotations__", ()))
        cls._fields = tuple(names)
        cls._args = tuple(n for n in names if not any(n in vars(c) for c in cls.__mro__))

    def __init__(self, *args):
        if len(args) != len(self._args):
            raise TypeError(f"{type(self).__name__}() takes {len(self._args)} arguments, "
                            f"got {len(args)}")
        self.__dict__.update(zip(self._args, args))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, n) for n in self._args]
                == [getattr(other, n) for n in self._args])

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({shown})"


# ---------------------------------------------------------------- expressions

class Expr(Node):
    pos: Pos


class ELit(Expr):
    """An int, float or bytes literal, or null (None)."""
    value: int | float | bytes | None


class EVar(Expr):
    name: str


class EUnary(Expr):
    op: str
    operand: Expr


class EBinary(Expr):
    op: str
    left: Expr
    right: Expr


class ECall(Expr):
    name: str
    args: list[Expr]


class EIndex(Expr):
    obj: Expr
    index: Expr


class EField(Expr):
    obj: Expr
    name: str


class ERecordLit(Expr):
    name: str
    fields: list[tuple[str, Expr]]


class EArrayLit(Expr):
    items: list[Expr]


# ---------------------------------------------------------------- statements

class Stmt(Node):
    pos: Pos
    stmt_id: int = -1      # set by number_statements


class SLet(Stmt):
    name: str
    value: Expr


class SAssign(Stmt):
    name: str
    value: Expr


class SIndexSet(Stmt):
    obj: Expr
    index: Expr
    value: Expr


class SIf(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: Optional[list[Stmt]]


class SWhile(Stmt):
    cond: Expr
    body: list[Stmt]


class SReturn(Stmt):
    value: Optional[Expr]


class SExpr(Stmt):
    value: Expr


# ---------------------------------------------------------------- top level

class RecordDef(Node):
    name: str
    fields: list[tuple[str, str]]
    pos: Pos


class GlobalDef(Node):
    name: str
    type: str
    init: Expr
    pos: Pos


class FunctionDef(Node):
    name: str
    params: list[tuple[str, str]]
    ret: Optional[str]
    body: list[Stmt]
    pos: Pos


# The function every system run starts in; it takes no parameters.
ENTRY = "main"


class Program(Node):
    records: list[RecordDef]
    globals: list[GlobalDef]
    functions: list[FunctionDef]
    # The VM's code for this program, built on its first run
    # (vm/interp.py); kept here so it lives exactly as long as the
    # program does.
    compiled = None

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


def subexpressions(e: Expr) -> list[Expr]:
    """An expression's direct subexpressions, in evaluation order."""
    if isinstance(e, EUnary):
        return [e.operand]
    if isinstance(e, EBinary):
        return [e.left, e.right]
    if isinstance(e, EIndex):
        return [e.obj, e.index]
    if isinstance(e, EField):
        return [e.obj]
    if isinstance(e, ERecordLit):
        return [v for _, v in e.fields]
    if isinstance(e, (ECall, EArrayLit)):
        return e.args if isinstance(e, ECall) else e.items
    return []


def walk_expr(e: Expr):
    """Pre-order walk over an expression and all its subexpressions."""
    yield e
    for x in subexpressions(e):
        yield from walk_expr(x)


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


# Builtins whose result is an int whenever they return.
_INT_BUILTINS = ("len", "byte_at", "arg_count", "parse_int", "print")


def yields_int(e: Expr, ints) -> bool:
    """Whether `e` yields an int whenever it yields at all, given that
    the locals named in `ints` hold ints.  An arithmetic operator takes
    two ints or two floats, so one int operand is enough."""
    if isinstance(e, EBinary):
        return e.op not in ("+", "-", "*", "/", "%") or yields_int(e.left, ints) \
            or yields_int(e.right, ints)
    if isinstance(e, EUnary):
        return e.op == "!" or yields_int(e.operand, ints)
    return (isinstance(e, ELit) and type(e.value) is int) or (
        isinstance(e, EVar) and e.name in ints) or (
        isinstance(e, ECall) and e.name in _INT_BUILTINS)


def int_locals(fn: FunctionDef, global_names) -> dict[int, set[str]]:
    """For each statement of `fn`, by id, the local names certain to hold
    ints when it starts, or for a while loop at its test.

    A parameter, and a value read from a global, the heap or a user call,
    is never known to be an int.  A loop's head holds what holds both on
    entry and after its body: each walk narrows it, until one narrows
    none.
    """
    before, heads = {}, {}

    def flow(body, ints: set) -> set:
        for s in body:
            before[s.stmt_id] = ints = set(ints)
            if isinstance(s, SWhile):
                ints &= heads.get(s.stmt_id, ints)
                heads[s.stmt_id] = ints & flow(s.body, ints)
            elif isinstance(s, SIf):
                ints = flow(s.then_body, ints) & flow(s.else_body or (), ints)
            elif isinstance(s, (SLet, SAssign)):    # before[...] stays as it is
                if not yields_int(s.value, ints):
                    ints = ints - {s.name}
                elif isinstance(s, SLet) or s.name not in global_names:
                    ints = ints | {s.name}  # else the global may take the value
        return ints

    last = None
    while heads != last:
        last = dict(heads)
        flow(fn.body, set())
    return before


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
