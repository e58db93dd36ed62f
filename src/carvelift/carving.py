"""Carve unit tests out of traced system runs.

A carve is one user-function invocation plus the context it ran against:
the argument values, every global, and the slice of the heap reachable
from either, all copied at call time by the tracer, under the run's
``RunOptions.max_dump_bytes`` budget.  The tracer also decides which
calls are carved (``vm/trace.py``).  Replaying a carve hands that
context to ``call_function``; for a complete (non-truncated) context the
replay covers exactly the goals the original call covered.

Context root paths follow the language's own access syntax:

    arg[0]                first argument
    global:db             a global
    global:db[2].name     ref index, then record field

so a path printed in a report can be read back against the source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import FormatError
from .lang.ast import Program
from .lang.goals import BranchGoal
from .vm.interp import RunResult
from .vm.trace import CarveStats
from .vm.values import (
    Record, Ref, SegmentTable, copy_segments, decode_segment, decode_value,
    encode_segment, encode_value,
)
# The tracer takes each call's snapshot (RunOptions.max_dump_bytes) and
# skips the calls of input-reading functions; both are re-exported here
# because a carve's context is that snapshot, taken of a carvable call.
from .lang.ast import input_reading_functions  # noqa: F401
from .vm.values import snapshot_reachable  # noqa: F401

SNAPSHOT_VERSION = 1


# ---------------------------------------------------------------- contexts

def parse_path(path: str):
    """Split a context path into its root and access steps.

    Returns (root, steps) where steps is a list of ("index", i) and
    ("field", name) entries.  Raises KeyError on malformed paths so that
    lookup and parse failures surface the same way.
    """
    if path.startswith("arg["):
        end = path.find("]")
        if end < 0 or not path[4:end].isdigit():
            raise KeyError(path)
        root, rest = path[:end + 1], path[end + 1:]
    elif path.startswith("global:"):
        i = 7
        while i < len(path) and (path[i].isalnum() or path[i] == "_"):
            i += 1
        if i == 7:
            raise KeyError(path)
        root, rest = path[:i], path[i:]
    else:
        raise KeyError(path)

    steps = []
    while rest:
        if rest[0] == "[":
            end = rest.find("]")
            if end < 0 or not rest[1:end].isdigit():
                raise KeyError(path)
            steps.append(("index", int(rest[1:end])))
            rest = rest[end + 1:]
        elif rest[0] == ".":
            i = 1
            while i < len(rest) and (rest[i].isalnum() or rest[i] == "_"):
                i += 1
            if i == 1:
                raise KeyError(path)
            steps.append(("field", rest[1:i]))
            rest = rest[i:]
        else:
            raise KeyError(path)
    return root, steps


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
                elems = self.segments[v.seg].elems
                for i, x in enumerate(elems[v.off:]):
                    yield from walk(f"{path}[{i}]", x)

        for root, v in self.roots.items():
            yield from walk(root, v)

    def resolve(self, path: str):
        """Look up the value a path denotes. Raises KeyError when absent."""
        root, steps = parse_path(path)
        if root not in self.roots:
            raise KeyError(path)
        v = self.roots[root]
        for kind, key in steps:
            if kind == "index":
                if isinstance(v, Ref):
                    seg = self.segments.get(v.seg)
                    if seg is None:
                        raise KeyError(path)
                    idx = v.off + key
                    if not 0 <= idx < len(seg.elems):
                        raise KeyError(path)
                    v = seg.elems[idx]
                elif isinstance(v, tuple):
                    if not 0 <= key < len(v):
                        raise KeyError(path)
                    v = v[key]
                else:
                    raise KeyError(path)
            else:
                if not isinstance(v, Record) or key not in v.fields:
                    raise KeyError(path)
                v = v.fields[key]
        return v


@dataclass
class CarvedTest:
    start: tuple[str, int]  # (function name, call index in the origin trace)
    context: Context
    origin: str
    observed_coverage: frozenset[BranchGoal]


# ---------------------------------------------------------------- carving

def carve_with_stats(program: Program, result: RunResult, origin: str = "",
                     ) -> tuple[list[CarvedTest], CarveStats]:
    """A carve of each call the traced run `result` of `program` kept,
    in call order, and the run's carve counts.

    Each carve's context is the snapshot its call took, used as it is.
    """
    if result.trace is None:
        raise ValueError("carving needs a traced run (use run_with_tracing)")
    out: list[CarvedTest] = []
    for call in result.trace:
        roots: dict[str, object] = {
            f"arg[{i}]": v for i, v in enumerate(call.args)}
        for name in sorted(call.globals):
            roots[f"global:{name}"] = call.globals[name]
        out.append(CarvedTest(
            start=(call.fn, call.call_index),
            context=Context(roots, call.segments, call.truncated),
            origin=origin,
            observed_coverage=call.coverage,
        ))
    return out, result.carve_stats


def context_to_world(ctx: Context):
    """Deep-copied (args, world) ready for call_function.

    The copy keeps replays from contaminating the stored carve: the callee
    mutates segments in place.
    """
    args = []
    i = 0
    while f"arg[{i}]" in ctx.roots:
        args.append(ctx.roots[f"arg[{i}]"])
        i += 1
    globals_ = {path[len("global:"):]: v
                for path, v in ctx.roots.items() if path.startswith("global:")}
    return args, (globals_, copy_segments(ctx.segments))


# ---------------------------------------------------------------- persistence

def save_snapshot(carved: CarvedTest, path) -> None:
    doc = {
        "version": SNAPSHOT_VERSION,
        "start": {"fn": carved.start[0], "call_index": carved.start[1]},
        "origin": carved.origin,
        "truncated": carved.context.truncated,
        "roots": [[p, encode_value(v)] for p, v in carved.context.roots.items()],
        "segments": {str(sid): encode_segment(seg)
                     for sid, seg in sorted(carved.context.segments.items())},
        "observed_coverage": sorted(str(g) for g in carved.observed_coverage),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_snapshot(path) -> CarvedTest:
    """The carve save_snapshot wrote; FormatError if the file is malformed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except ValueError as exc:   # not JSON, or not ASCII
        raise FormatError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("snapshot document must be a JSON object")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise FormatError(
            f"unsupported snapshot version: {doc.get('version')!r}")
    try:
        ctx = Context(
            roots={p: decode_value(v) for p, v in doc["roots"]},
            segments={int(sid): decode_segment(s)
                      for sid, s in doc["segments"].items()},
            truncated=bool(doc["truncated"]),
        )
        return CarvedTest(
            start=(str(doc["start"]["fn"]), int(doc["start"]["call_index"])),
            context=ctx,
            origin=str(doc["origin"]),
            observed_coverage=frozenset(
                BranchGoal.parse(g) for g in doc["observed_coverage"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"snapshot document is malformed: {exc!r}") from exc
