"""How fast the host runs interpreter work right now.

On a shared host the speed of a vCPU changes with its neighbours' load:
the same work takes up to twice as long in slow spells, which last from
milliseconds to minutes.  A wall time divided by the time of a probe
taken moments before it, times REFERENCE_S, is the wall time the same
work takes when the probe runs at its reference speed.  Timings scaled
this way hold steady across the host's slow spells, where raw wall
times (and their minima over a run) do not.

probe() walks a small expression tree with isinstance dispatch, the
kind of work carvelift's tree-walking interpreter does; it tracked the
campaigns' slowdowns more closely than dict-and-sort work did.  It
shares no code with carvelift, so a change to the program cannot move
the reference.
"""

from time import perf_counter

# About what probe() takes between pieces of campaign work in the host's
# fast spells: Intel Xeon, 2 vCPUs, Python 3.11.
REFERENCE_S = 50e-6


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class _If:
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond, then, other):
        self.cond, self.then, self.other = cond, then, other


def _tree(depth: int, i: int):
    if depth == 0:
        return _Var("x") if i % 3 == 0 else _Num(i % 7 + 1)
    if i % 5 == 0:
        return _If(_tree(depth - 1, i + 1), _tree(depth - 1, i + 2),
                   _tree(depth - 1, i + 3))
    return _Bin("+-*"[i % 3], _tree(depth - 1, i + 1),
                _tree(depth - 1, i * 2 + 1))


_TREE = _tree(5, 1)


def _eval(e, env):
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return env[e.name]
    if isinstance(e, _Bin):
        a, b = _eval(e.left, env), _eval(e.right, env)
        if e.op == "+":
            return (a + b) & 0xFFFF
        if e.op == "-":
            return (a - b) & 0xFFFF
        return (a * b) & 0xFFFF
    return _eval(e.then if _eval(e.cond, env) & 1 else e.other, env)


def probe() -> float:
    """Seconds six evaluations of a fixed expression tree take now."""
    t0 = perf_counter()
    acc = 0
    for x in range(6):
        acc = _eval(_TREE, {"x": x, "y": acc})
    return perf_counter() - t0


def at_reference(wall_s: float, probe_s: float) -> float:
    """wall_s scaled to the host speed at which probe() takes REFERENCE_S."""
    return wall_s * REFERENCE_S / probe_s
