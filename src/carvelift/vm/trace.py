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

Context paths follow the language's own access syntax:

    arg[0]                first argument
    global:db             a global
    global:db[2].name     ref index, then record field

so a path printed in a report can be read back against the source.
`Context` alone writes these paths, in one walk (`walk`) that keeps,
for each place it names, the value and where a world stores it:
`leaves` names every scalar leaf, `resolve` looks one up, and `world`
builds the replay world for `call_function` with chosen leaves
replaced.  They accept exactly the paths the walk writes, and nothing
parses one; a context never changes, so what it keeps always holds.

One encoding of a carve (`encode_carve`, read back by `decode_carve`)
serves both the snapshot file (`save_snapshot`) and the determinism
checks of `serialize_run_result`; it writes each array and record once
(`values.value_encoder`).  Its context part, `Context.encode`, kept as
text by `Context.encoding`, is also the key of the campaign's unit memos.
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
    Record, Ref, SegmentTable, snapshot_reachable, value_decoder, value_encoder, wrap64,
)

SNAPSHOT_VERSION = 3
PER_FN_CAP = 8      # recorded calls kept per function and run


@dataclass
class Context:
    """Everything one invocation could see: its args, its globals by name
    and the reachable heap.  `places` keeps what every world needs once
    found (see `walk`), `encoded` the JSON text once made (`encoding`)."""

    args: tuple
    globals: dict
    segments: SegmentTable
    truncated: bool
    places: dict | None = field(default=None, init=False, repr=False, compare=False)
    encoded: str | None = field(default=None, init=False, repr=False, compare=False)

    def encode(self) -> dict:
        """The args, globals and segments as JSON, as `encode_carve` writes them."""
        item, parts = value_encoder()
        return {"args": [item(v) for v in self.args],
                "globals": [[n, item(v)] for n, v in sorted(self.globals.items())],
                "segments": {str(sid): [item(x) for x in seg]
                             for sid, seg in sorted(self.segments.items())},
                "parts": parts}

    def encoding(self) -> str:
        """`encode` as JSON text, kept in `encoded`: equal texts replay
        the same world, so a campaign keys its unit memos by it."""
        if self.encoded is None:
            self.encoded = json.dumps(self.encode())
        return self.encoded

    def walk(self) -> dict:
        """Every place the context names, arguments first: an argument, a
        global, an array item, a record field or a segment element, kept
        in `places`.

        Maps each place's path to (value, holder, steps): its holder is
        where a world stores it, an argument's index, a global's name or a
        segment element's (segment id, absolute index), and its steps are
        the array indices and field names below that holder.  Aliased
        segments are walked once, named by the first path that reaches
        them; that also terminates cyclic structures.
        """
        if self.places is None:
            places, visited = {}, set()
            open_ = [iter([*((f"arg[{i}]", v, i, ()) for i, v in enumerate(self.args)),
                           *((f"global:{n}", v, n, ()) for n, v in self.globals.items())])]
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
        per unit execution, so all else it needs is kept.
        """
        args, globals_ = list(self.args), dict(self.globals)
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
            else:                           # an argument or a global
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

    The context's segments are the heap slice reachable from its args
    and globals at call time, copied under the run's byte budget.  When
    it is `truncated`, refs out of the slice are null wherever they are.
    `observed_coverage` is filled in when the call returns, and
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
        names, n = sorted(st.globals), len(args)
        roots, segments, truncated = snapshot_reachable(
            [*args, *(st.globals[g] for g in names)], st.segments, st.opts.max_dump_bytes)
        st.coverage = set()
        self.sets.append(st.coverage)
        ctx = Context(tuple(roots[:n]), dict(zip(names, roots[n:])), segments, truncated)
        return CarvedTest((name, call_index), ctx, "", frozenset())

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

    The globals must be distinct identifiers in name order.  Every ref
    must point into the segment table, at most at its segment's end
    (`slice` can leave a ref there).
    """
    try:
        names = [n for n, _ in doc["globals"]]
        if not all(type(n) is str and re.fullmatch(IDENT, n) for n in names) \
                or names != sorted(set(names)):
            raise FormatError(f"globals must be distinct identifiers in name order: {names!r}")
        fn, call_index = doc["start"]["fn"], doc["start"]["call_index"]
        origin, truncated = doc["origin"], doc["truncated"]
        if type(call_index) is not int or type(truncated) is not bool:
            raise FormatError("call_index must be a JSON integer, truncated a JSON bool")
        if type(fn) is not str or not re.fullmatch(IDENT, fn) or type(origin) is not str:
            raise FormatError("fn must be an identifier, origin a JSON string")
        item, table = value_decoder(doc["parts"], doc["segments"])
        ctx = Context(tuple(map(item, doc["args"])),
                      {n: item(x) for n, x in doc["globals"]}, table, truncated)
        return CarvedTest((fn, call_index), ctx, origin, frozenset(
            BranchGoal.parse(g) for g in doc["observed_coverage"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"carve document is malformed: {exc!r}") from exc


def serialize_run_result(result) -> dict:
    """A `RunResult` as JSON, for determinism checks; wall time is
    excluded because it is the one field the machine, not the program,
    decides.  A returned array or record adds the `parts` its item names."""
    item, parts = value_encoder()
    return {
        "status": asdict(result.status),
        "coverage": sorted(str(g) for g in result.coverage),
        "steps": result.steps,
        "output": result.output.decode("latin-1"),
        "return_value": item(result.return_value),
        "trace": None if result.trace is None else {
            "calls": [encode_carve(c) for c in result.trace],
            "stats": asdict(result.carve_stats)},
        **({"parts": parts} if parts else {}),     # filled by the items above
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
    except (ValueError, RecursionError) as exc:   # not JSON or ASCII, or nested too deep
        raise FormatError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("snapshot document must be a JSON object")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise FormatError(
            f"unsupported snapshot version: {doc.get('version')!r}")
    return decode_carve(doc)
