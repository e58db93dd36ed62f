"""A seeded generator of mini-language programs.

`generate(rng)` builds a program's AST and renders it with
`lang/pretty.py`, so the text it returns parses to the program it built.
The programs use every value type (ints near the 64-bit bounds, floats,
bytes, records, `alloc_array` refs, arrays), globals with initializers
that read earlier globals, calls down an acyclic call graph plus one
recursive function with a bounded depth, `while` loops bounded by a
counter, `&&` and `||`, every builtin, lets that are bound on one path
only and lets that shadow a global, and statements that crash in every
kind behind input-dependent tests.  `main` derives an int `k` from its
first argument, so different inputs take different paths.

With `retype=True` the programs also hold int locals that are made
another type on some paths (in an if, or in a loop's body) and then
read in arithmetic, in orderings and in loop heads, and now and then
pass a float where a function declares another type (the VM checks no
declared type).  The option draws nothing when it is off, so the
default programs stay as they are.

`generate_input(rng)` draws an input for such a program.  Everything is
a function of the seed: the same rng state yields the same text.
"""

from __future__ import annotations

from carvelift.inputs import SystemInput
from carvelift.lang.ast import (
    EArrayLit, EBinary, ECall, EField, EIndex, ELit, ERecordLit, EUnary, EVar,
    FunctionDef, GlobalDef, Pos, Program, RecordDef, SAssign, SExpr, SIf,
    SIndexSet, SLet, SReturn, SWhile,
)
from carvelift.lang.pretty import pretty_print

P0 = Pos(1, 1)
INT64_MAX = 2 ** 63 - 1
TYPES = {"int": "int", "float": "float", "bytes": "bytes",
         "ref": "ref int", "arr": "[int]", "P": "P"}
RECORDS = [RecordDef("P", [("x", "int"), ("s", "bytes")], P0)]
COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]
WORDS = [b"", b"a", b"ab", b"key", b"0", b"-12", b"x\n\"y\\", b"\x00\xff"]


def v(name):
    return EVar(P0, name)


def i(n):
    return ELit(P0, n) if n >= 0 else EUnary(P0, "-", ELit(P0, -n))


def b(op, left, right):
    return EBinary(P0, op, left, right)


def cmp(op, left, right):
    """A comparison; comparisons do not chain, so one on the left is summed."""
    if type(left) is EBinary and left.op in COMPARISONS:
        left = b("+", left, i(0))
    return b(op, left, right)


def nat(e, n):
    """`e` folded into 0..n-1 (`n` an int expression that is positive)."""
    return b("%", b("+", b("%", e, n), n), n)


def call(name, *args):
    return ECall(P0, name, list(args))


class _Gen:
    def __init__(self, rng, retype=False):
        self.rng = rng
        self.retype = retype
        self.functions: list[FunctionDef] = []
        self.sigs = {}          # user function -> (param types, heavy)
        self.globals = {}       # global name -> type
        self.names = 0

    def fresh(self, prefix):
        self.names += 1
        return f"{prefix}{self.names}"

    def pick(self, seq):
        return self.rng.choice(seq)

    def chance(self, n):
        return self.rng.randrange(n) == 0

    # ------------------------------------------------------------ expressions

    def vars_of(self, scope, ty):
        return [n for n, t in scope.items() if t == ty]

    def expr(self, ty, scope, d):
        """An expression that usually evaluates to `ty`."""
        if ty == "int":
            return self.int_expr(scope, d)
        names = self.vars_of(scope, ty)
        if names and (d <= 0 or self.chance(2)):
            return v(self.pick(names))
        if ty == "float":
            if d > 0 and self.chance(2):
                return b(self.pick("+-*/%"), self.expr("float", scope, d - 1),
                         ELit(P0, self.pick([0.5, 2.25, 3.0, 1e-3])))
            return ELit(P0, self.pick([0.5, 1.5, 7.25, 1024.0]))
        if ty == "bytes":
            if d > 0:
                r = self.rng.randrange(4)
                if r == 0:
                    return call("concat", self.expr("bytes", scope, d - 1),
                                self.expr("bytes", scope, d - 1))
                if r == 1:
                    return call("to_string", self.int_expr(scope, d - 1))
                if r == 2:
                    s = call("concat", self.expr("bytes", scope, d - 1), ELit(P0, b"."))
                    return call("slice", s, i(0), nat(self.int_expr(scope, d - 1), call("len", s)))
            return ELit(P0, self.pick(WORDS))
        if ty == "ref":
            new = call("alloc_array", i(self.rng.randint(3, 6)), self.int_expr(scope, d - 1))
            if self.chance(3):
                return call("slice", new, i(self.rng.randrange(3)))
            return new
        if ty == "arr":
            return EArrayLit(P0, [self.int_expr(scope, d - 1) for _ in range(3)])
        if ty == "P":
            return ERecordLit(P0, "P", [("x", self.int_expr(scope, d - 1)),
                                        ("s", self.expr("bytes", scope, d - 1))][::self.pick([1, -1])])
        return ELit(P0, None)

    def int_expr(self, scope, d):
        rng = self.rng
        ints = self.vars_of(scope, "int")
        if d <= 0 or self.chance(4):
            if ints and not self.chance(2):
                return v(self.pick(ints))
            return i(self.pick([0, 1, 2, 3, 7, 100, -1, INT64_MAX, -INT64_MAX]))
        sub = lambda: self.int_expr(scope, d - 1)   # noqa: E731
        r = rng.randrange(16)
        if r < 4:
            return b(self.pick(["+", "-", "*", "+", "-"]), sub(), sub())
        if r < 6:
            return cmp(self.pick(COMPARISONS), sub(), sub())
        if r == 6:
            return b(self.pick(["&&", "||"]), sub(), sub())
        if r == 7:
            return b(self.pick("/%"), sub(), i(self.pick([1, 2, 3, 7, -2])) if
                     rng.randrange(5) else sub())
        if r == 8:
            return EUnary(P0, self.pick("-!"), sub())
        if r == 9:
            return call("len", self.expr(self.pick(["bytes", "ref", "arr"]), scope, d - 1))
        if r == 10:
            s = call("concat", self.expr("bytes", scope, d - 1), ELit(P0, b"!"))
            return call("byte_at", s, nat(sub(), call("len", s)))
        if r == 11:
            return EIndex(P0, self.expr(self.pick(["ref", "arr"]), scope, d - 1),
                          nat(sub(), i(3)) if self.rng.randrange(8) else sub())
        if r == 12:
            return EField(P0, self.expr("P", scope, d - 1), "x")
        if r == 13 and self.chance(3):
            return call("parse_int", call("to_string", sub()))
        if r == 14 and self.functions:
            return self.user_call(scope, d, heavy_ok=False)
        ty = self.pick(list(TYPES))
        other = ty if self.rng.randrange(8) else self.pick(list(TYPES))
        return cmp(self.pick(["==", "!="]), self.expr(ty, scope, d - 1),
                   self.expr(other, scope, d - 1))

    def user_call(self, scope, d, heavy_ok):
        names = [f for f, (_, heavy) in self.sigs.items() if heavy_ok or not heavy]
        if not names:
            return i(0)
        name = self.pick(names)
        params, _ = self.sigs[name]
        if self.retype:     # now and then a float argument: the VM checks no declared type
            params = [self.pick([t] * 5 + ["float"]) for t in params]
        return call(name, *(self.expr(t, scope, d - 1) for t in params))

    # ------------------------------------------------------------ statements

    def crash(self, scope):
        """A statement that crashes in one of the four kinds."""
        return self.pick([
            lambda: SExpr(P0, call("abort", self.expr("bytes", scope, 1))),
            lambda: SLet(P0, self.fresh("z"), b("/", i(1), b("-", i(3), i(3)))),
            lambda: SLet(P0, self.fresh("z"), EIndex(P0, EArrayLit(P0, [i(1)]), i(4))),
            lambda: SLet(P0, self.fresh("z"), b("+", i(1), ELit(P0, b"s"))),
            lambda: SLet(P0, self.fresh("z"), EField(P0, ELit(P0, None), "x")),
            lambda: SExpr(P0, call("rec", i(300), i(0))),
            lambda: SExpr(P0, call("alloc_array", i(-1), i(0))),
        ])()

    def block(self, scope, d, loops, body_len):
        """Statements; lets made here are only maybe-bound afterwards."""
        inner = dict(scope)
        out = []
        for _ in range(body_len):
            out.extend(self.stmt(inner, d, loops))
        return out, inner

    def stmt(self, scope, d, loops):
        rng = self.rng
        if self.retype and self.chance(8):
            return self.retyped(scope)
        r = rng.randrange(20)
        ints = [n for n in self.vars_of(scope, "int") if not n.startswith("c")]
        if r < 4:
            name = self.fresh("x")
            ty = self.pick(list(TYPES))
            s = SLet(P0, name, self.expr(ty, scope, 3))
            scope[name] = ty
            return [s]
        if r < 6 and ints:
            return [SAssign(P0, self.pick(ints), self.int_expr(scope, 3))]
        if r == 6:
            gints = [g for g, t in self.globals.items() if t == "int"]
            if gints:
                return [SAssign(P0, self.pick(gints), self.int_expr(scope, 2))]
        if r == 7:
            refs = self.vars_of(scope, "ref")
            if refs:
                return [SIndexSet(P0, v(self.pick(refs)), nat(self.int_expr(scope, 1), i(3)),
                                  self.int_expr(scope, 2))]
        if r < 10 and d > 0:
            return [self.if_stmt(scope, d, loops)]
        if r < 12 and d > 0 and loops < 2:
            counter = self.fresh("c")
            body, _ = self.block({**scope, counter: "int"}, d - 1, loops + 1,
                                 rng.randint(1, 3))
            body.append(SAssign(P0, counter, b("+", v(counter), i(1))))
            cond = b("<", v(counter), i(rng.randint(1, 4)))
            if self.chance(2):
                cond = b("&&", cond, cmp("<", self.int_expr(scope, 1), v(counter))
                         if self.chance(3) else self.int_expr(scope, 1))
            return [SLet(P0, counter, i(0)), SWhile(P0, cond, body)]
        if r == 12 and "k" in scope:
            return [SIf(P0, b("==", v("k"), i(rng.randrange(12))), [self.crash(scope)], None)]
        if r == 13 and self.chance(3):
            late = self.fresh("late")
            shadow = self.pick([g for g, t in self.globals.items() if t == "int"] or [late])
            then = [SLet(P0, late, i(1)), SLet(P0, shadow, self.int_expr(scope, 1))]
            return [SIf(P0, self.int_expr(scope, 1), then, None),
                    SExpr(P0, call("print", b("+", v(shadow), v(late) if self.chance(2) else i(0)))),
                    SAssign(P0, shadow, i(5))]
        if r == 14 and self.functions:
            return [SExpr(P0, self.user_call(scope, 2, heavy_ok=loops == 0))]
        if r == 15 and d > 0:
            return [SIf(P0, self.int_expr(scope, 1),
                        [SReturn(P0, self.int_expr(scope, 2))], None)]
        return [SExpr(P0, call("print", self.expr(self.pick(list(TYPES)), scope, 2)))]

    def retyped(self, scope):
        """An int local made another type on some paths, before a loop
        or in its body, and read before, after, in the loop's head, and
        once it holds an int again on every path."""
        rng = self.rng
        name, counter = self.fresh("t"), self.fresh("c")

        def read(odds=3):
            """`name` in arithmetic or an ordering: with itself, which an
            int or a float takes alike, or (one time in `odds`) with an int
            literal, whose fast path an int proof would take for a float."""
            right = v(name) if rng.randrange(odds) else i(rng.randrange(4))
            return b(self.pick(["+", "-", "*", "<", "<=", ">", "=="]), v(name), right)

        def shift():
            """`name` = a value of another type, mostly a float, or an int."""
            if self.chance(3):
                return SAssign(P0, name, b(self.pick("+*"), v(name), self.int_expr(scope, 1)))
            other = self.pick(["float", "float", "float", "bytes", "P"])
            return SAssign(P0, name, self.expr(other, scope, 1))

        def double():
            """`name` = itself combined with itself, which keeps its type."""
            return SAssign(P0, name, b(self.pick("+*"), v(name), v(name)))

        out = [SLet(P0, name, self.int_expr(scope, 2)),
               SExpr(P0, call("print", read()))]
        if self.chance(2):      # else it is an int until the loop's body
            out.append(SIf(P0, self.int_expr(scope, 1), [shift()],
                           [shift()] if self.chance(2) else None))
            if self.chance(2):
                out.append(double())
            out.append(SExpr(P0, call("print", read())))
        body = [SAssign(P0, counter, b("+", v(counter), i(1)))]
        when = (b("==", v(counter), i(rng.randrange(2))) if rng.randrange(3)
                else self.int_expr(scope, 1))
        body.insert(rng.randrange(2), SIf(P0, when, [shift()], None))
        if self.chance(2):
            body.insert(rng.randrange(3), double())
        head = b("&&", b("<", v(counter), i(rng.randint(2, 4))), read(2))
        out += [SLet(P0, counter, i(0)), SWhile(P0, head, body),
                SExpr(P0, call("print", read(2))),
                SAssign(P0, name, self.int_expr(scope, 1)),
                SExpr(P0, call("print", read()))]
        scope[name] = "int"
        return out

    def if_stmt(self, scope, d, loops):
        then, _ = self.block(scope, d - 1, loops, self.rng.randint(1, 3))
        other = None
        r = self.rng.randrange(3)
        if r == 1:
            other, _ = self.block(scope, d - 1, loops, self.rng.randint(1, 2))
        elif r == 2:
            other = [self.if_stmt(scope, d - 1, loops)] if d > 1 else None
        return SIf(P0, self.int_expr(scope, 2), then, other)

    # ------------------------------------------------------------ program

    def program(self) -> Program:
        rng = self.rng
        globals_ = [GlobalDef("g0", "int", i(rng.randrange(50)), P0)]
        self.globals["g0"] = "int"
        for n in range(1, rng.randint(2, 4)):
            ty = self.pick(["int", "bytes", "ref", "P", "float"])
            name = f"g{n}"
            globals_.append(GlobalDef(name, TYPES[ty], self.expr(ty, dict(self.globals), 2), P0))
            self.globals[name] = ty
        # rec(n, acc) recurses n times; rec(300, ...) overflows the stack.
        rec_scope = {**self.globals, "n": "int", "acc": "int"}
        rec_body, _ = self.block(rec_scope, 1, 1, rng.randint(1, 2))
        self.functions.append(FunctionDef(
            "rec", [("n", "int"), ("acc", "int")], "int",
            [SIf(P0, b("<=", v("n"), i(0)), [SReturn(P0, v("acc"))], None)] + rec_body
            + [SReturn(P0, call("rec", b("-", v("n"), i(1)),
                                b("+", v("acc"), self.int_expr(rec_scope, 1))))], P0))
        self.sigs["rec"] = (["int", "int"], True)
        for n in range(rng.randint(1, 3)):
            params = [(f"p{j}", self.pick(list(TYPES))) for j in range(rng.randrange(4))]
            scope = {**self.globals, **dict(params)}
            names_before = self.names
            body, _ = self.block(scope, 2, 0, rng.randint(2, 5))
            body.append(SReturn(P0, self.int_expr(scope, 2)))
            heavy = any(isinstance(s, SWhile) for s in body) or self.names - names_before > 8
            name = f"f{n}"
            self.functions.append(FunctionDef(
                name, [(p, TYPES[t]) for p, t in params], "int", body, P0))
            self.sigs[name] = ([t for _, t in params], heavy)
        scope = {**self.globals, "a": "bytes", "k": "int", "s": "bytes"}
        main = [SLet(P0, "a", call("arg", i(0))),
                SLet(P0, "s", call("read_all_input")),
                SLet(P0, "k", b("+", b("*", call("len", v("a")), i(7)),
                                call("byte_at", call("concat", v("a"), ELit(P0, b"!")), i(0)))),
                SExpr(P0, call("print", call("rec", b("%", v("k"), i(6)), call("arg_count"))))]
        body, _ = self.block(scope, 3, 0, rng.randint(4, 8))
        main += body + [SReturn(P0, b("%", self.int_expr(scope, 2), i(256)))]
        self.functions.append(FunctionDef("main", [], "int", main, P0))
        return Program(RECORDS, globals_, self.functions)


def generate(rng, retype=False) -> str:
    """The source text of one generated program; `retype` adds int
    locals that change type on some paths (see the module docstring)."""
    return pretty_print(_Gen(rng, retype).program())


def generate_input(rng) -> SystemInput:
    argv = [rng.randbytes(rng.randrange(6)) if rng.randrange(3) else rng.choice(WORDS)
            for _ in range(rng.randint(1, 2))]
    return SystemInput(tuple(argv), rng.randbytes(rng.randrange(8)))


def nested_sources(blocks: int, depth: int) -> list[str]:
    """Programs that nest exactly `blocks` statement bodies deep (while
    loops and ifs), an else-if chain of `blocks - 1` links, and an
    expression nested `depth`
    deep in parentheses, each under a test that depends on the input."""
    def nest(open_, close, inner):
        lines = []
        for d in range(blocks):
            lines.append("    " * (d + 1) + open_(d))
        lines.append("    " * (blocks + 1) + inner)
        for d in reversed(range(blocks)):
            lines.append("    " * (d + 1) + close(d))
        return "\n".join(lines)
    loops = nest(lambda d: f"let c{d} = 0; while (c{d} < 1) {{",
                 lambda d: f"    c{d} = c{d} + 1;\n" + "    " * (d + 1) + "}",
                 "print(c0 + k);")
    ifs = nest(lambda d: f"if (k > {d - 3}) {{", lambda d: "}", "print(k);")
    chain = else_if_chain(blocks - 1)
    # A right-nested && of `depth` levels: a name or literal is one level,
    # and each operator, call and pair of parentheses adds one.
    levels, extra = divmod(depth - 3, 2)
    deep = "(" * extra + "(k > 1 && " * levels + "k > 2" + ")" * (levels + extra)
    return [main_source(body)
            for body in (loops, ifs, chain, f"    print({deep});\n    print(k);")]


def else_if_chain(links: int) -> str:
    """An if on `k` with `links` else-if links, the one for k == d printing d."""
    return "    if (k == 0) { print(0); }\n" + "".join(
        f"    else if (k == {d}) {{ print({d}); }}\n" for d in range(1, links + 1))


def main_source(body: str) -> str:
    """A program whose main runs `body` with k the length of its first argument."""
    return ("fn main() -> int {\n    let k = len(arg(0));\n" + body
            + "\n    return k;\n}\n")
