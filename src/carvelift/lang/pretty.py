"""Canonical source formatter.

Reparsing the pretty-printed text yields a structurally identical program:
the same declarations in the same order, the same statement ids, and the
same branch goals.  Operators get parentheses by the parser's own
``PRECEDENCE`` table, and an else whose body is one if is written as an
``else if`` link, so a chain costs no statement-body depth.  The parser
counts the links open around each statement against ``MAX_ELSE_IF``, so
once that many are open such an else is written as an ``else { if … }``
block instead.
"""

from __future__ import annotations

from .ast import (
    EArrayLit, EBinary, EBytes, ECall, EField, EFloat, EIndex, EInt, ENull,
    ERecordLit, EUnary, EVar, Expr, Program, SAssign, SExpr, SIf,
    SIndexSet, SLet, SReturn, SWhile, Stmt,
)
from .parser import MAX_ELSE_IF, PRECEDENCE


def _bytes_literal(b: bytes) -> str:
    out = ['"']
    for byte in b:
        if byte == 0x22:
            out.append('\\"')
        elif byte == 0x5C:
            out.append("\\\\")
        elif byte == 0x0A:
            out.append("\\n")
        elif byte == 0x09:
            out.append("\\t")
        elif byte == 0x0D:
            out.append("\\r")
        elif 0x20 <= byte < 0x7F:
            out.append(chr(byte))
        else:
            out.append(f"\\x{byte:02x}")
    out.append('"')
    return "".join(out)


def _expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, EInt):     # a negative one as the literal it wraps from
        return str(e.value % (1 << 64))
    if isinstance(e, EFloat):
        return repr(e.value)
    if isinstance(e, EBytes):
        return _bytes_literal(e.value)
    if isinstance(e, ENull):
        return "null"
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EUnary):
        return f"{e.op}{_expr(e.operand, 6)}"
    if isinstance(e, EBinary):
        prec = PRECEDENCE[e.op]
        left = prec + 1 if prec == PRECEDENCE["<"] else prec    # no chains
        text = f"{_expr(e.left, left)} {e.op} {_expr(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, ECall):
        return f"{e.name}({', '.join(_expr(a) for a in e.args)})"
    if isinstance(e, EIndex):
        return f"{_expr(e.obj, 7)}[{_expr(e.index)}]"
    if isinstance(e, EField):
        return f"{_expr(e.obj, 7)}.{e.name}"
    if isinstance(e, ERecordLit):
        inner = ", ".join(f"{n}: {_expr(v)}" for n, v in e.fields)
        return f"{e.name} {{ {inner} }}" if inner else f"{e.name} {{ }}"
    if isinstance(e, EArrayLit):
        return f"[{', '.join(_expr(v) for v in e.items)}]"
    raise TypeError(f"unhandled expression {e!r}")


def _stmt(s: Stmt, indent: int, out: list[str], links: int = 0) -> None:
    """Append `s` at `indent`, inside `links` open else-if links."""
    pad = "    " * indent
    if isinstance(s, SLet):
        out.append(f"{pad}let {s.name} = {_expr(s.value)};")
    elif isinstance(s, SAssign):
        out.append(f"{pad}{s.name} = {_expr(s.value)};")
    elif isinstance(s, SIndexSet):
        out.append(f"{pad}{_expr(s.obj, 7)}[{_expr(s.index)}] = {_expr(s.value)};")
    elif isinstance(s, SIf):
        head = "if"
        while True:     # an else whose body is one if, as an else-if link
            out.append(f"{pad}{head} ({_expr(s.cond)}) {{")
            for inner in s.then_body:
                _stmt(inner, indent + 1, out, links)
            tail = s.else_body or []
            if (len(tail) != 1 or not isinstance(tail[0], SIf)
                    or links == MAX_ELSE_IF):
                break
            s, head, links = tail[0], "} else if", links + 1
        if s.else_body is not None:
            out.append(f"{pad}}} else {{")
            for inner in s.else_body:
                _stmt(inner, indent + 1, out, links)
        out.append(f"{pad}}}")
    elif isinstance(s, SWhile):
        out.append(f"{pad}while ({_expr(s.cond)}) {{")
        for inner in s.body:
            _stmt(inner, indent + 1, out, links)
        out.append(f"{pad}}}")
    elif isinstance(s, SReturn):
        out.append(f"{pad}return;" if s.value is None else f"{pad}return {_expr(s.value)};")
    elif isinstance(s, SExpr):
        out.append(f"{pad}{_expr(s.value)};")
    else:
        raise TypeError(f"unhandled statement {s!r}")


def pretty_print(program: Program) -> str:
    out: list[str] = []
    for r in program.records:
        fields = ", ".join(f"{n}: {t}" for n, t in r.fields)
        out.append(f"record {r.name} {{ {fields} }}")
    if program.records:
        out.append("")
    for g in program.globals:
        out.append(f"global {g.name}: {g.type} = {_expr(g.init)};")
    if program.globals:
        out.append("")
    for fn in program.functions:
        params = ", ".join(f"{n}: {t}" for n, t in fn.params)
        ret = f" -> {fn.ret}" if fn.ret is not None else ""
        out.append(f"fn {fn.name}({params}){ret} {{")
        for s in fn.body:
            _stmt(s, 1, out)
        out.append("}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
