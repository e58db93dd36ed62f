"""Carves: the calls a traced run records, and their JSON encoding.

A carve is one user-function invocation plus the context it ran against:
the argument values, every global, and the heap slice reachable from
either, copied at call time under `RunOptions.max_dump_bytes`.  The
tracer records each call it keeps as a `CarvedTest`.  Replaying an
untruncated carve's context through `call_function` covers exactly the
goals the call covered.

A traced run records only the calls carving keeps.  The entry function
and input-reading functions are never recorded.  Any other call is
recorded, with a snapshot of its context, while fewer than
`RunOptions.per_fn_cap` recorded calls of its function have returned.
Of the recorded calls that return, the first `per_fn_cap` of each
function by call index are kept; a call still open when the run ends
holds no place under the cap.  The run counts every call it does not
keep in its `CarveStats`.

A recorded call's coverage is the set of branch goals reached while it
was open, its callees' included: a branch adds to the innermost open
recorded call's set, and a return merges that set into the one below.

Context root paths follow the language's own access syntax:

    arg[0]                first argument
    global:db             a global
    global:db[2].name     ref index, then record field

so a path printed in a report can be read back against the source.
`Context` alone reads and writes these paths: `leaves` names every
scalar leaf, `resolve` looks one up, and `world` builds the replay
world for `call_function` with chosen leaves replaced.

One encoding of a carve (`encode_carve`, read back by `decode_carve`)
serves both the snapshot file and the determinism checks of
`serialize_run_result`; byte strings inside values are base64.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from ..errors import FormatError
from ..lang.ast import ENTRY
from ..lang.goals import BranchGoal
from .values import (
    Record, Ref, SegmentTable, copy_segments, decode_segments, decode_value,
    encode_segments, encode_value, iter_refs, sever, snapshot_reachable,
)


_ROOT = re.compile(r"arg\[[0-9]+\]|global:\w+")
_STEP = re.compile(r"\[([0-9]+)\]|\.(\w+)")


def parse_path(path: str):
    """Split a context path into its root and access steps.

    Returns (root, steps) where steps is a list of ("index", i) and
    ("field", name) entries.  Raises KeyError on malformed paths so that
    lookup and parse failures surface the same way.
    """
    m = _ROOT.match(path)
    if m is None:
        raise KeyError(path)
    steps = []
    pos = m.end()
    while pos < len(path):
        step = _STEP.match(path, pos)
        if step is None:
            raise KeyError(path)
        steps.append(("index", int(step[1])) if step[1] is not None
                      else ("field", step[2]))
        pos = step.end()
    return path[:m.end()], steps


@dataclass
class Context:
    """Everything one invocation could see: args, globals, reachable heap."""

    roots: dict[str, object]
    segments: SegmentTable
    truncated: bool

    def leaves(self):
        """Yield (path, value) for every scalar leaf, argument roots first.

        Aliased segments are walked once, claimed by the first path that
        reaches them; that also terminates cyclic structures.
        """
        visited: set[int] = set()

        def walk(path, v):
            if isinstance(v, (int, float, bytes)):
                yield path, v
            elif isinstance(v, tuple):
                for i, x in enumerate(v):
                    yield from walk(f"{path}[{i}]", x)
            elif isinstance(v, Record):
                for name, x in v.fields.items():
                    yield from walk(f"{path}.{name}", x)
            elif isinstance(v, Ref):
                if v.seg in visited or v.seg not in self.segments:
                    return
                visited.add(v.seg)
                for i, x in enumerate(self.segments[v.seg][v.off:]):
                    yield from walk(f"{path}[{i}]", x)

        for root, v in self.roots.items():
            yield from walk(root, v)

    def resolve(self, path: str):
        """Look up the value a path denotes. Raises KeyError when absent."""
        root, steps = parse_path(path)
        try:
            v = self.roots[root]
            for step in steps:
                holder, key = _slot(v, step, self.segments)
                v = holder[key]
        except KeyError:
            raise KeyError(path) from None
        return v

    def world(self, assign=None):
        """A fresh (args, (globals, segments)) for `call_function`.

        The segments are copied, since the callee stores into them, and
        the leaf at each path of `assign` (in path order) is replaced by
        its value; the context itself never changes.  Raises KeyError
        for a path `resolve` cannot look up.
        """
        segments = copy_segments(self.segments)
        roots = self.roots
        if assign:
            roots = dict(roots)
            for path in sorted(assign):
                root, steps = parse_path(path)
                try:
                    roots[root] = _replaced(roots[root], steps, assign[path],
                                            segments)
                except KeyError:
                    raise KeyError(path) from None
        args = []
        while f"arg[{len(args)}]" in roots:
            args.append(roots[f"arg[{len(args)}]"])
        globals_ = {p[len("global:"):]: v for p, v in roots.items()
                    if p.startswith("global:")}
        return args, (globals_, segments)


def _slot(v, step, segments):
    """Where one access step from `v` leads: (holder, key) with the value
    at holder[key], the holder a segment, a tuple or a record's fields.
    Raises KeyError when the step leads nowhere."""
    kind, key = step
    if kind == "field":
        if isinstance(v, Record) and key in v.fields:
            return v.fields, key
    elif isinstance(v, Ref):
        seg = segments.get(v.seg)
        if seg is not None and v.off + key < len(seg):
            return seg, v.off + key
    elif isinstance(v, tuple) and key < len(v):
        return v, key
    raise KeyError(key)


def _replaced(v, steps, new, segments):
    """`v` with the leaf `steps` lead to replaced by `new`; a leaf behind
    a ref is stored into `segments` in place."""
    if not steps:
        return new
    holder, key = _slot(v, steps[0], segments)
    inner = _replaced(holder[key], steps[1:], new, segments)
    if isinstance(v, Ref):
        holder[key] = inner
        return v
    if isinstance(v, Record):
        return v.with_field(key, inner)
    return v[:key] + (inner,) + v[key + 1:]


@dataclass
class CarvedTest:
    """One recorded call and the context it replays.

    The context's segments are the heap slice reachable from its roots
    at call time, copied under the run's byte budget.  When it is
    `truncated`, refs out of the slice (in roots and segments alike) are
    null.  `observed_coverage` is filled in when the call returns, and
    `origin` (the system input's id) by `carving.carve_with_stats`.
    """

    start: tuple[str, int]  # (function name, call index in the origin trace)
    context: Context
    origin: str
    observed_coverage: frozenset[BranchGoal]


@dataclass
class CarveStats:
    carved: int = 0
    truncated: int = 0
    skipped_incomplete: int = 0
    skipped_capped: int = 0
    skipped_input_dependent: int = 0


class Tracer:
    """The recording state of one traced run.

    `sets` holds the run's coverage set, then the set of each open
    recorded call, innermost last; the run state's `coverage` is always
    the last, so a branch adds to it without knowing it is traced.
    """

    def __init__(self, per_fn_cap: int, input_dependent: frozenset[str],
                 coverage: set):
        self.cap = per_fn_cap
        self.input_dependent = input_dependent
        self.calls = 0              # call indices handed out, main's too
        self.returned: Counter[str] = Counter()   # recorded, per function
        self.done: list[CarvedTest] = []
        self.sets = [coverage]
        self.stats = CarveStats()

    def enter(self, st, name: str, args: list):
        """Number the call; what `leave` needs: its carve when it is
        recorded, else its name, or None for the entry function."""
        call_index = self.calls
        self.calls += 1
        if name == ENTRY:
            return None
        self.stats.skipped_incomplete += 1      # until it returns
        if name in self.input_dependent or self.returned[name] >= self.cap:
            return name
        # The context: the arguments, then the globals by name.
        roots = {f"arg[{i}]": v for i, v in enumerate(args)}
        for n in sorted(st.globals):
            roots[f"global:{n}"] = st.globals[n]
        segments, truncated = snapshot_reachable(
            roots.values(), st.segments, st.opts.max_dump_bytes)
        if truncated:
            roots = {p: sever(v, segments) for p, v in roots.items()}
        st.coverage = set()
        self.sets.append(st.coverage)
        return CarvedTest((name, call_index),
                          Context(roots, segments, truncated), "", frozenset())

    def leave(self, st, call) -> None:
        """The call `enter` returned `call` for has returned."""
        if call is None:
            return
        self.stats.skipped_incomplete -= 1
        if type(call) is str:
            if call in self.input_dependent:
                self.stats.skipped_input_dependent += 1
            else:
                self.stats.skipped_capped += 1
            return
        inner = self.sets.pop()
        call.observed_coverage = frozenset(inner)
        st.coverage = self.sets[-1]
        st.coverage |= inner
        self.returned[call.start[0]] += 1
        self.done.append(call)

    def finish(self, st) -> list[CarvedTest]:
        """The kept calls in call order, once the run has ended.  Leaves
        the whole run's coverage in `st.coverage`."""
        run = self.sets[0]
        for inner in self.sets[1:]:     # calls open when the run ended
            run |= inner
        st.coverage = run
        kept: list[CarvedTest] = []
        per_fn: Counter[str] = Counter()
        for call in sorted(self.done, key=lambda c: c.start[1]):
            if per_fn[call.start[0]] >= self.cap:
                self.stats.skipped_capped += 1
                continue
            per_fn[call.start[0]] += 1
            kept.append(call)
        self.stats.carved = len(kept)
        self.stats.truncated = sum(c.context.truncated for c in kept)
        return kept


def encode_carve(carve: CarvedTest) -> dict:
    """A carve as JSON: a snapshot file's body, and a traced run's call."""
    ctx = carve.context
    return {
        "start": {"fn": carve.start[0], "call_index": carve.start[1]},
        "origin": carve.origin,
        "truncated": ctx.truncated,
        "roots": [[p, encode_value(v)] for p, v in ctx.roots.items()],
        "segments": encode_segments(ctx.segments),
        "observed_coverage": sorted(str(g) for g in carve.observed_coverage),
    }


def decode_carve(doc: dict) -> CarvedTest:
    """The carve `encode_carve` wrote; FormatError if `doc` is malformed.

    Every ref must point into the segment table, with an offset at most
    its segment's length (`slice` can leave a ref at the end).
    """
    try:
        ctx = Context({p: decode_value(v) for p, v in doc["roots"]},
                      decode_segments(doc["segments"]), bool(doc["truncated"]))
        table = ctx.segments
        for v in chain(ctx.roots.values(), *table.values()):
            for r in iter_refs(v):
                if r.seg not in table or r.off > len(table[r.seg]):
                    raise FormatError(f"{r} lies outside the segment table")
        return CarvedTest(
            start=(str(doc["start"]["fn"]), int(doc["start"]["call_index"])),
            context=ctx,
            origin=str(doc["origin"]),
            observed_coverage=frozenset(
                BranchGoal.parse(g) for g in doc["observed_coverage"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"carve document is malformed: {exc!r}") from exc
