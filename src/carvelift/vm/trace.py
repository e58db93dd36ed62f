"""Carves: the calls a traced run records, and their JSON encoding.

A carve is one user-function invocation plus the context it ran against:
the argument values, every global, and the heap slice reachable from
either, copied at call time under `RunOptions.max_dump_bytes`.  The
tracer records each call it keeps as a `CarvedTest`.  Replaying an
untruncated carve's context through `call_function` covers exactly the
goals the call covered.

A traced run records only the calls carving keeps.  The entry function
and input-reading functions are never recorded.  Any other call is
recorded, with a snapshot of its context, while fewer than `PER_FN_CAP`
recorded calls of its function have returned.  Of the recorded calls
that return, the first `PER_FN_CAP` of each function by call index are
kept; a call still open when the run ends holds no place under the cap.
The run counts every call it does not keep in its `CarveStats`.

A recorded call's coverage is the set of branch goals reached while it
was open, its callees' included: a branch adds to the innermost open
recorded call's set, and a return merges that set into the one below.

Context root paths follow the language's own access syntax:

    arg[0]                first argument
    global:db             a global
    global:db[2].name     ref index, then record field

so a path printed in a report can be read back against the source.
`Context` alone writes these paths, in one walk (`walk`) that keeps,
for each place it names, the value and where a world stores it:
`leaves` names every scalar leaf, `resolve` looks one up, and `world`
builds the replay world for `call_function` with chosen leaves
replaced.  They accept exactly the paths the walk writes; a context
never changes, so what it keeps always holds.

One encoding of a carve (`encode_carve`, read back by `decode_carve`)
serves both the snapshot file (`save_snapshot`) and the determinism
checks of `serialize_run_result`; byte strings inside values are base64.
Its context part, `Context.encode`, kept as text by `Context.encoding`,
is also the key of the campaign's unit memos.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field

from ..errors import FormatError, TypeMismatch
from ..lang.ast import ENTRY
from ..lang.goals import BranchGoal
from ..lang.lexer import IDENT
from .values import (
    Record, Ref, SegmentTable, decode_segments, decode_value,
    encode_segments, encode_value, sever, snapshot_reachable, wrap64,
)

SNAPSHOT_VERSION = 2
PER_FN_CAP = 8      # recorded calls kept per function and run


@dataclass
class Context:
    """Everything one invocation could see: args, globals, reachable heap.
    Roots are `arg[0..n-1]`, then `global:name`; `places` and `split` keep
    what every world needs once first found (see `walk` and `world`), and
    `encoded` the context's JSON text once made (see `encoding`)."""

    roots: dict[str, object]
    segments: SegmentTable
    truncated: bool
    places: dict | None = field(default=None, init=False, repr=False, compare=False)
    split: tuple | None = field(default=None, init=False, repr=False, compare=False)
    encoded: str | None = field(default=None, init=False, repr=False, compare=False)

    def encode(self) -> dict:
        """The roots and segments as JSON values, as `encode_carve` writes them."""
        return {"roots": [[p, encode_value(v)] for p, v in self.roots.items()],
                "segments": encode_segments(self.segments)}

    def encoding(self) -> str:
        """`encode` as JSON text, kept in `encoded`: equal texts replay
        the same world, so a campaign keys its unit memos by it."""
        if self.encoded is None:
            self.encoded = json.dumps(self.encode())
        return self.encoded

    def walk(self) -> dict:
        """Every place the context names, argument roots first: a root, an
        array item, a record field or a segment element, kept in `places`.

        Maps each place's path to (value, holder, steps): its holder is
        where a world stores it, a root's args index or global name or a
        segment element's (segment id, absolute index), and its steps are
        the array indices and field names below that holder.  Aliased
        segments are walked once, named by the first path that reaches
        them; that also terminates cyclic structures.
        """
        if self.places is None:
            places, visited = {}, set()
            open_ = [iter([(p, v, int(p[4:-1]) if p[0] == "a" else p[7:], ())
                           for p, v in self.roots.items()])]   # a stack: values nest deep
            while open_:
                for path, v, holder, steps in open_[-1]:
                    places[path] = v, holder, steps
                    if isinstance(v, tuple):
                        open_.append(iter([(f"{path}[{i}]", x, holder, steps + (i,))
                                           for i, x in enumerate(v)]))
                        break
                    if isinstance(v, Record):
                        open_.append(iter([(f"{path}.{n}", x, holder, steps + (n,))
                                           for n, x in v.fields.items()]))
                        break
                    if isinstance(v, Ref) and v.seg not in visited and v.seg in self.segments:
                        visited.add(v.seg)
                        seg = self.segments[v.seg]
                        open_.append(iter([(f"{path}[{i - v.off}]", seg[i], (v.seg, i), ())
                                           for i in range(v.off, len(seg))]))
                        break
                else:
                    open_.pop()
            self.places = places
        return self.places

    def leaves(self):
        """Yield (path, value) for every scalar leaf `walk` names, in its order."""
        for path, (v, _, _) in self.walk().items():
            if isinstance(v, (int, float, bytes)):
                yield path, v

    def resolve(self, path: str):
        """The value at a path `walk` names. Raises KeyError otherwise."""
        return self.walk()[path][0]

    def world(self, assign=None):
        """A fresh (args, (globals, segments)) for `call_function`.

        The args, the globals and each segment are copied, since the
        callee rebinds globals and stores into segments, and the leaf at
        each path of `assign`, in sorted order, is stored into its holder,
        the arrays and records above it rebuilt.  KeyError for a path
        `walk` does not name; TypeMismatch unless the value is of the
        leaf's kind, bytes or int (an int wraps to 64 bits).  It runs once
        per unit execution, so it does only the copies, the checks and the
        replacing; the rest is kept.
        """
        if self.split is None:
            self.split = ([v for p, v in self.roots.items() if p[0] == "a"],
                          {p[7:]: v for p, v in self.roots.items() if p[0] == "g"})
        args, globals_ = list(self.split[0]), dict(self.split[1])
        segments = {sid: seg[:] for sid, seg in self.segments.items()}
        if not assign:
            return args, (globals_, segments)
        places = self.walk()
        for path in sorted(assign) if len(assign) > 1 else assign:
            leaf, holder, steps = places[path]
            value = assign[path]
            kind = bytes if isinstance(leaf, bytes) else int if isinstance(leaf, int) else None
            if kind is None:
                raise TypeMismatch(f"{path}: only bytes and int leaves take assignments")
            if not isinstance(value, kind) or type(value) is bool:
                raise TypeMismatch(f"{path} holds {'bytes' if kind is bytes else 'an int'}, "
                                   "assignment is not")
            if kind is int:
                value = wrap64(value)
            if type(holder) is tuple:       # a segment element
                held, key = segments[holder[0]], holder[1]
            else:                           # a root
                held, key = (args if type(holder) is int else globals_), holder
            # Only leaves are replaced, so every step leads where it did.
            held[key] = _rebuilt(held[key], steps, value) if steps else value
        return args, (globals_, segments)


def _rebuilt(v, steps, new):
    """`v` with the item its array and record `steps` lead to replaced by `new`."""
    trail = []
    for key in steps:
        trail.append((v, key))
        v = v.fields[key] if type(key) is str else v[key]
    for v, key in reversed(trail):     # innermost first
        new = (Record(v.rtype, {**v.fields, key: new}) if type(key) is str
               else v[:key] + (new,) + v[key + 1:])
    return new


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
    """A traced run's calls: those carved, and those not kept, by reason."""
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

    def __init__(self, input_dependent: frozenset[str], coverage: set):
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
        if name in self.input_dependent or self.returned[name] >= PER_FN_CAP:
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
            if per_fn[call.start[0]] >= PER_FN_CAP:
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
        **ctx.encode(),
        "observed_coverage": sorted(str(g) for g in carve.observed_coverage),
    }


def decode_carve(doc: dict) -> CarvedTest:
    """The carve `encode_carve` wrote; FormatError if `doc` is malformed.

    The roots must be `arg[0]` to `arg[n-1]` and then distinct globals,
    as a call's context holds them.  Every ref must point into the
    segment table, with an offset at most its segment's length (`slice`
    can leave a ref at the end).
    """
    try:
        paths = [p for p, _ in doc["roots"]]
        n = 0
        while n < len(paths) and paths[n] == f"arg[{n}]":
            n += 1
        if not all(type(p) is str and p.startswith("global:") and re.fullmatch(IDENT, p[7:])
                   for p in paths[n:]) \
                or len(set(paths)) != len(paths):
            raise FormatError(f"roots must be arg[0..n-1] then globals: {paths!r}")
        fn, call_index = doc["start"]["fn"], doc["start"]["call_index"]
        origin, truncated = doc["origin"], doc["truncated"]
        if type(call_index) is not int or type(truncated) is not bool:
            raise FormatError("call_index must be a JSON integer, truncated a JSON bool")
        if type(fn) is not str or not re.fullmatch(IDENT, fn) or type(origin) is not str:
            raise FormatError("fn must be an identifier, origin a JSON string")
        table = decode_segments(doc["segments"])
        lengths = {sid: len(seg) for sid, seg in table.items()}
        ctx = Context({p: decode_value(v, lengths) for p, v in doc["roots"]}, table, truncated)
        return CarvedTest((fn, call_index), ctx, origin, frozenset(
            BranchGoal.parse(g) for g in doc["observed_coverage"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"carve document is malformed: {exc!r}") from exc


def serialize_run_result(result) -> dict:
    """A `RunResult` as JSON, for determinism checks; wall time is
    excluded because it is the one field the machine, not the program,
    decides."""
    return {
        "status": asdict(result.status),
        "coverage": sorted(str(g) for g in result.coverage),
        "steps": result.steps,
        "output": result.output.decode("latin-1"),
        "return_value": encode_value(result.return_value),
        "trace": None if result.trace is None else {
            "calls": [encode_carve(c) for c in result.trace],
            "stats": asdict(result.carve_stats)},
    }


def save_snapshot(carved: CarvedTest, path) -> None:
    doc = {"version": SNAPSHOT_VERSION, **encode_carve(carved)}
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
    return decode_carve(doc)
