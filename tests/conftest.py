import difflib
import importlib.resources
import json
import os
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest

from carvelift.inputs import SystemInput
from carvelift.lang.ast import (
    EArrayLit, EBinary, ECall, EField, EIndex, ELit, ERecordLit, EUnary, EVar,
    SAssign, SExpr, SIf, SIndexSet, SLet, SReturn, SWhile,
)
from carvelift.lang.goals import BranchGoal
from carvelift.lang.parser import parse
from carvelift.reporting import parse_report, serialize_report
from carvelift.vm.values import wrap64

SUBJECT_NAMES = ["keycheck", "mini_dc", "mini_sed", "mini_cut", "mini_tac"]

# A program whose run passes bytes to a parameter declared int: declared
# types are not enforced, so its carves of check must replay as they ran.
BYTES_AS_INT = """
fn check(x: int) -> int {
    if (x == "k3y!") { return 2; }
    if (len(x) > 3) { return 1; }
    return 0;
}
fn main() -> int { return check(read_all_input()); }
"""


def subject_source(name: str) -> str:
    res = importlib.resources.files("carvelift") / "subjects" / f"{name}.ml"
    return res.read_text(encoding="utf-8")


def load_subject(name: str):
    return parse(subject_source(name))


def mk_input(argv=(), stdin=b"") -> SystemInput:
    return SystemInput(tuple(bytes(a) for a in argv), bytes(stdin))


@pytest.fixture(scope="session")
def subjects():
    return {name: load_subject(name) for name in SUBJECT_NAMES}


# ------------------------------------------------------------ golden reports

GOLDENS = Path(__file__).resolve().parent / "goldens"
# Set to rewrite every golden file a test compares with, instead of
# comparing; a change that moves reports on purpose commits the result.
REGEN_GOLDENS = "CARVELIFT_REGEN_GOLDENS"


def timeless(report):
    """`report` with every wall-time field zeroed."""
    return replace(
        report, total_wall_s=0.0, system_wall_total_s=0.0,
        speedup=replace(report.speedup, median_system_ms=0.0,
                        median_unit_ms=0.0, speedup=0.0))


def assert_matches_golden(report, name: str) -> None:
    """The timeless report serializes to `goldens/<name>.json` byte for
    byte, and parses back to itself.  A mismatch fails with the count of
    differing lines and the first 40 lines of a unified diff."""
    text = serialize_report(timeless(report))
    assert parse_report(text) == timeless(report)
    path = GOLDENS / f"{name}.json"
    if os.environ.get(REGEN_GOLDENS):
        path.write_bytes(text.encode("ascii"))
        return
    want = path.read_bytes().decode("ascii")
    if text != want:
        diff = list(difflib.unified_diff(
            want.splitlines(), text.splitlines(), f"goldens/{name}.json",
            "this run", lineterm=""))
        changed = sum(line[:1] in "+-" for line in diff[2:])
        pytest.fail(f"{path.name}: {changed} lines differ\n"
                    + "\n".join(diff[:40]), pytrace=False)


def report_doc(report, drop=()) -> dict:
    """The serialized report as a JSON document without the keys in
    `drop`.  A key is a dotted path, and a path through a list names the
    key in each element: "speedup.speedup", "functions.carves"."""
    doc = json.loads(serialize_report(report))
    for path in drop:
        *parents, last = path.split(".")
        nodes = [doc]
        for key in parents:
            nodes = [n[key] for n in nodes]
            nodes = [e for n in nodes for e in (n if isinstance(n, list) else [n])]
        for n in nodes:
            del n[last]
    return doc


def random_input_for(name: str, rng) -> SystemInput:
    """A plausible random system input for a bundled subject.

    Inputs mix well-formed and junk shapes so runs exercise both the happy
    paths and the error handling of each subject.
    """
    if name == "keycheck":
        pool = [b"admin", b"guest", b"root", b"d7wfv", b"#anon", b"",
                b"opensesame", b"guest123", b"a" * 20]
        argv = []
        for _ in range(rng.randrange(4)):
            if rng.randrange(3):
                argv.append(rng.choice(pool))
            else:
                argv.append(rng.randbytes(rng.randrange(9)))
        return mk_input(argv)
    if name == "mini_dc":
        alphabet = b"0123456789 +pdx"
        n = rng.randrange(14)
        return mk_input((), bytes(rng.choice(alphabet) for _ in range(n)))
    if name == "mini_sed":
        script = bytes(rng.choice(b"pdqx") for _ in range(rng.randrange(4)))
        lines = [rng.randbytes(rng.randrange(6)).replace(b"\n", b".")
                 for _ in range(rng.randrange(4))]
        argv = [script] if rng.randrange(4) else []
        return mk_input(argv, b"".join(ln + b"\n" for ln in lines))
    if name == "mini_cut":
        specs = [b"1", b"2-3", b"1-2", b"9-1", b"0", b"x", b"2-", b"-3"]
        argv = [rng.choice(specs)] if rng.randrange(5) else []
        lines = []
        for _ in range(rng.randrange(4)):
            fields = [rng.randbytes(rng.randrange(4)).replace(b",", b".").replace(b"\n", b".")
                      for _ in range(rng.randrange(5))]
            lines.append(b",".join(fields))
        return mk_input(argv, b"".join(ln + b"\n" for ln in lines))
    if name == "mini_tac":
        body = rng.randbytes(rng.randrange(30))
        return mk_input((), body)
    raise ValueError(f"unknown subject {name!r}")


# ------------------------------------------------------- the naive oracle
#
# A second interpreter that re-executes a program by rule.  It shares only
# the parser with the real VM; evaluation, branching and allocation are
# re-implemented from scratch here.

class NRef(NamedTuple):
    sid: int
    off: int


class _Ret(Exception):
    def __init__(self, value):
        self.value = value


class NaiveStop(Exception):
    """The naive run ended early: a crash, or a loop past its bound."""


class NaiveCounter:
    """Re-interpretation that records each call's branch goals by rule.

    Calls are numbered in the order they start, main included.  A branch
    goal (one per conditional evaluation, so a loop reaches enter once
    per iteration plus exit once) is added to the run's coverage and to
    the set of every call open at that moment.  `calls[i]` is (function,
    its set) once call i has returned, and (function, None) while it is
    open.  The run stops at an abort, at a Python error where the VM
    would crash, or when one loop runs more than `max_iterations` times.
    """

    def __init__(self, program, argv, stdin, max_iterations=None):
        self.functions = {f.name: f for f in program.functions}
        self.program = program
        self.argv = argv
        self.stdin = stdin
        self.max_iterations = max_iterations
        self.globals = {}
        self.segments = {}
        self.next_sid = 0
        self.coverage = set()
        self.calls = []
        self.open = []      # (function name, goal set) per open call
        self.out = bytearray()

    def run(self):
        """The exit code, or None when the run stopped early."""
        try:
            for g in self.program.globals:
                self.globals[g.name] = self.ev(g.init, {})
            value = self.call(self.functions["main"], [])
        except (NaiveStop, ArithmeticError, LookupError, TypeError):
            return None
        return value if isinstance(value, int) else 0

    def call(self, fn, args):
        index = len(self.calls)
        self.calls.append((fn.name, None))
        goals = set()
        self.open.append((fn.name, goals))
        frame = {name: v for (name, _), v in zip(fn.params, args)}
        try:
            self.body(fn.body, frame)
            value = None
        except _Ret as r:
            value = r.value
        self.open.pop()
        self.calls[index] = (fn.name, frozenset(goals))
        return value

    def branch(self, s, outcome):
        goal = BranchGoal(self.open[-1][0], s.stmt_id, outcome)
        self.coverage.add(goal)
        for _, goals in self.open:
            goals.add(goal)

    def body(self, stmts, frame):
        for s in stmts:
            cls = type(s)
            if cls is SLet:
                frame[s.name] = self.ev(s.value, frame)
            elif cls is SAssign:
                v = self.ev(s.value, frame)
                if s.name in frame:
                    frame[s.name] = v
                elif s.name in self.globals:
                    self.globals[s.name] = v
                else:
                    frame[s.name] = v
            elif cls is SExpr:
                self.ev(s.value, frame)
            elif cls is SIf:
                if self.ev(s.cond, frame) != 0:
                    self.branch(s, "then")
                    self.body(s.then_body, frame)
                else:
                    self.branch(s, "else")
                    if s.else_body is not None:
                        self.body(s.else_body, frame)
            elif cls is SWhile:
                n = 0
                while self.ev(s.cond, frame) != 0:
                    n += 1
                    if self.max_iterations is not None and n > self.max_iterations:
                        raise NaiveStop("loop bound")
                    self.branch(s, "loop-enter")
                    self.body(s.body, frame)
                self.branch(s, "loop-exit")
            elif cls is SReturn:
                raise _Ret(self.ev(s.value, frame)
                           if s.value is not None else None)
            elif cls is SIndexSet:
                ref = self.ev(s.obj, frame)
                idx = self.ev(s.index, frame)
                self.segments[ref.sid][ref.off + idx] = self.ev(s.value, frame)
            else:
                raise AssertionError(s)

    def ev(self, e, frame):
        cls = type(e)
        if cls is ELit:
            return e.value
        if cls is EVar:
            return frame[e.name] if e.name in frame else self.globals[e.name]
        if cls is EUnary:
            v = self.ev(e.operand, frame)
            if e.op == "-":
                return wrap64(-v) if type(v) is int else -v
            return 0 if v != 0 else 1
        if cls is EBinary:
            return self.binop(e, frame)
        if cls is ECall:
            if e.name in self.functions:
                return self.call(self.functions[e.name],
                                 [self.ev(a, frame) for a in e.args])
            return self.builtin(e.name, [self.ev(a, frame) for a in e.args])
        if cls is EIndex:
            obj = self.ev(e.obj, frame)
            idx = self.ev(e.index, frame)
            if isinstance(obj, NRef):
                return self.segments[obj.sid][obj.off + idx]
            return obj[idx]
        if cls is EField:
            return self.ev(e.obj, frame)[1][e.name]
        if cls is ERecordLit:
            return (e.name, {n: self.ev(v, frame) for n, v in e.fields})
        if cls is EArrayLit:
            return tuple(self.ev(v, frame) for v in e.items)
        raise AssertionError(e)

    def binop(self, e, frame):
        op = e.op
        if op == "&&":
            return 1 if self.ev(e.left, frame) != 0 \
                and self.ev(e.right, frame) != 0 else 0
        if op == "||":
            return 1 if self.ev(e.left, frame) != 0 \
                or self.ev(e.right, frame) != 0 else 0
        a, b = self.ev(e.left, frame), self.ev(e.right, frame)
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 0 if a == b else 1
        if op in ("<", "<=", ">", ">="):
            return 1 if {"<": a < b, "<=": a <= b,
                         ">": a > b, ">=": a >= b}[op] else 0
        if type(a) is int:
            if op == "+":
                return wrap64(a + b)
            if op == "-":
                return wrap64(a - b)
            if op == "*":
                return wrap64(a * b)
            q = abs(a) // abs(b)
            q = q if (a < 0) == (b < 0) else -q
            if op == "/":
                return wrap64(q)
            return wrap64(a - wrap64(q * b))
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]

    def builtin(self, name, args):
        if name == "len":
            v = args[0]
            if isinstance(v, NRef):
                return len(self.segments[v.sid]) - v.off
            return len(v)
        if name == "byte_at":
            return args[0][args[1]]
        if name == "slice":
            v = args[0]
            if isinstance(v, NRef):
                return NRef(v.sid, v.off + args[1])
            return v[args[1]:args[2]]
        if name == "concat":
            return args[0] + args[1]
        if name == "arg_count":
            return len(self.argv)
        if name == "arg":
            return self.argv[args[0]]
        if name == "read_all_input":
            return self.stdin
        if name == "print":
            v = args[0]
            self.out += v if isinstance(v, bytes) else str(v).encode()
            self.out += b"\n"
            return 0
        if name == "parse_int":
            return wrap64(int(args[0]))
        if name == "to_string":
            v = args[0]
            return v if isinstance(v, bytes) else str(v).encode()
        if name == "abort":
            raise NaiveStop("abort")
        if name == "alloc_array":
            sid = self.next_sid
            self.next_sid += 1
            self.segments[sid] = [args[1]] * args[0]
            return NRef(sid, 0)
        raise AssertionError(name)


# One summary line per acceptance criterion, keyed by test base name.
ACCEPTANCE_LABELS = {
    "test_criterion_1_carving_fidelity":
        "carved contexts replay to identical coverage",
    "test_criterion_2_mapping_matches_brute_force":
        "mapping equals a brute-force occurrence scan",
    "test_criterion_3_identity_lift_reproduces_origin":
        "identity lift reproduces the origin input",
    "test_criterion_4_bridge_beats_baseline_on_keycheck":
        "bridge reaches the password check, baseline does not",
    "test_criterion_5_false_positives_filtered":
        "lift outcomes fully classified and effective inputs replay",
    "test_criterion_6_non_decimal_negative_control":
        "non-parameterizable subject degrades to baseline",
    "test_criterion_7_quit_branch_discovery":
        "mini_sed quit branch found with a discrete coverage jump",
    "test_criterion_8_unit_speedup":
        "unit executions at least 10x faster than system runs",
    "test_criterion_9_deterministic_campaigns":
        "step-clock campaigns reproduce bit-for-bit",
}


def _criterion_key(nodeid: str) -> str | None:
    base = nodeid.rsplit("::", 1)[-1].split("[", 1)[0]
    return base if base in ACCEPTANCE_LABELS else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            key = _criterion_key(getattr(rep, "nodeid", ""))
            if key is None:
                continue
            verdict = "PASS" if outcome == "passed" else "FAIL"
            if seen.get(key) != "FAIL":
                seen[key] = verdict
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for idx, (key, label) in enumerate(ACCEPTANCE_LABELS.items(), start=1):
        if key in seen:
            terminalreporter.write_line(
                f"criterion {idx} ({label}): {seen[key]}")
