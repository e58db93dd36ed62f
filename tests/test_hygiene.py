"""Source hygiene checks over the package's own modules.

The tests import the package from `src/` beside them.  A top-level import whose name the module never uses is dead weight and
hides what the module really depends on.  Package __init__ files are
left out: they import names to re-export them.  An import that is kept
on purpose carries a `# noqa: F401` marker, and only a name the
benchmark's span tracer wraps may be kept so.  What a package does export,
its `__all__`, must name only what it defines.  A field of a record one
stage hands the next must be read somewhere, or no stage needs it.  The
VM (`vm/interp.py` and `vm/ops.py`) stays within its line budget.  Only
`_Campaign.run_one` runs a system input in `campaign.py`, so every run
goes through its step memo, and only `_Campaign.charge` writes the
campaign's ledger of system executions.  Each of two jobs has one
place: only `vm/` encodes and decodes values, and only `lang/goals.py`
makes a `BranchGoal`.  `docs/formats.md` states the versions the code
writes, and every field of the report's records has a type that
`parse_report` can check.  Every dataclass has a docstring, and
importing the package loads neither the pretty-printer nor the command
line.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import carvelift

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carvelift"

# The records the stages hand on, by defining module.
STAGE_RECORDS = {
    "carvelift.mapping": ("Match", "Mapping"),
    "carvelift.unitgen": ("ParamAssignment", "UnitOutcome", "FuzzStats"),
    "carvelift.lifting": ("LiftOutcome",),
    "carvelift.vm.trace": ("CarvedTest", "Context"),
    "carvelift.campaign": ("FunctionState",),
}
# Fields kept although nothing reads them yet, each with its reason.
UNREAD_ALLOWED = {
    "ParamAssignment.provenance":
        "winners per mutator family go into the report (ROADMAP item 5)",
}


def marked(node, lines):
    """Whether the import `node` carries a `# noqa: F401` marker."""
    return any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(text):
    """(line, name) of each top-level import whose name is never loaded."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if marked(node, lines):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def kept_imports(text):
    """The names of the top-level imports marked `# noqa: F401`."""
    lines = text.splitlines()
    return [alias.asname or alias.name.partition(".")[0]
            for node in ast.parse(text).body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and marked(node, lines)
            for alias in node.names]


def test_the_tests_import_the_checkout():
    """pyproject.toml puts src/ first on the tests' path, so they test
    the source beside them, never an installed copy."""
    assert Path(carvelift.__file__).resolve().is_relative_to(PACKAGE)


def test_scanner_finds_only_unused_names():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import (b,\n"
        "               c)\n"
        "from d import e  # noqa: F401\n"
        "import sys\n"
        "def f(x: b) -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(text) == [(3, "js"), (4, "c"), (7, "sys")]
    assert kept_imports(text) == ["e"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 10
    found = [f"{p.relative_to(PACKAGE)}:{line}: {name}"
             for p in modules for line, name in unused_imports(p.read_text())]
    assert found == []


def test_every_kept_import_is_a_name_the_span_tracer_wraps(monkeypatch):
    """bench/spans.py wraps functions at the module attributes the
    layers call through; an unused import is kept only as such an
    attribute, and goes once nothing wraps it."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    wrapped = {(module.__name__, attr) for module, attr, _, _ in spans.POINTS}
    kept = {(".".join(("carvelift", *p.relative_to(PACKAGE).with_suffix("").parts)), name)
            for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"
            for name in kept_imports(p.read_text())}
    assert sorted(kept - wrapped) == []


@pytest.mark.parametrize("package", ["carvelift", "carvelift.vm",
                                     "carvelift.lang"])
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def attributes_read(paths):
    """Every attribute name loaded (`x.name`) in the given sources."""
    return {n.attr for p in paths for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_stage_record_field_is_read():
    read = attributes_read([*PACKAGE.rglob("*.py"),
                            *(ROOT / "bench").rglob("*.py")])
    unread = {f"{cls}.{f.name}"
              for module, names in STAGE_RECORDS.items()
              for cls in names
              for f in dataclasses.fields(
                  getattr(importlib.import_module(module), cls))
              if f.name not in read}
    assert sorted(unread - UNREAD_ALLOWED.keys()) == []
    # An allowance goes once its field is read.
    assert sorted(UNREAD_ALLOWED.keys() - unread) == []


def is_dataclass_def(node):
    """Whether `node` is a class definition decorated `@dataclass`, with
    or without arguments."""
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list)


def test_dataclass_scanner_finds_each_decorated_class():
    text = (
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    \"\"\"Documented.\"\"\"\n"
        "class C:\n"
        "    pass\n"
    )
    found = [(n.name, ast.get_docstring(n)) for n in ast.walk(ast.parse(text))
             if is_dataclass_def(n)]
    assert found == [("A", None), ("B", "Documented.")]


def test_every_dataclass_has_a_docstring():
    """A dataclass without a docstring gets a `__doc__` that CPython
    (3.10 to 3.13) builds from `inspect.signature(cls)` as the class is
    made, on every import.  A one-line docstring saying what the record
    holds costs nothing."""
    found = [f"{p.relative_to(PACKAGE)}:{n.lineno}: {n.name}"
             for p in sorted(PACKAGE.rglob("*.py"))
             for n in ast.walk(ast.parse(p.read_text()))
             if is_dataclass_def(n) and ast.get_docstring(n) is None]
    assert found == []


def test_importing_the_package_loads_neither_the_printer_nor_the_cli():
    """`import carvelift` is most of a fresh process's set-up; the
    pretty-printer and the command line are imported only where they are
    used.  Checked in a fresh interpreter, where no test has imported
    them already."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    script = ("import sys, carvelift\n"
              "print(sorted({'carvelift.lang.pretty', 'carvelift.cli'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]"]


# ROADMAP item 8's bound on the VM: the compiler and the operations it
# calls may not grow past it, so new compiler code is paid for by
# deletions.
VM_LINE_BUDGET = 901


def test_the_vm_stays_within_its_line_budget():
    lines = sum(len((PACKAGE / "vm" / name).read_text().splitlines())
                for name in ("interp.py", "ops.py"))
    assert lines <= VM_LINE_BUDGET


# ---------------------------------------------------------------- step memo

SYSTEM_RUNS = {"run_system", "run_with_tracing"}


def system_run_references(text):
    """The qualified name of the function or class around each reference
    to run_system or run_with_tracing, "<module>" outside any; a lambda
    counts as the function it is in.  Referring is enough: a function
    that takes one of them as a value can call it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id in SYSTEM_RUNS
                    or isinstance(child, ast.Attribute) and child.attr in SYSTEM_RUNS):
                found.append(scope or "<module>")
            visit(child, scope)
    visit(ast.parse(text), "")
    return found


def test_reference_scanner_names_each_scope():
    text = (
        "from x import run_system, run_with_tracing\n"
        "class C:\n"
        "    def run_one(self, s):\n"
        "        return (run_with_tracing if s else run_system)(s)\n"
        "    def other(self, s):\n"
        "        f = lambda: m.run_system(s)\n"
        "def g():\n"
        "    return run_system\n"
        "h = run_with_tracing\n"
    )
    assert system_run_references(text) == [
        "C.run_one", "C.run_one", "C.other", "g", "<module>"]


def test_only_run_one_runs_a_system_input_in_the_campaign():
    """A run outside `_Campaign.run_one` would bypass its step memo and
    could run an input the campaign has already run.  (A lift's
    validation runs in lifting.py; charging it stores its steps.)"""
    found = system_run_references((PACKAGE / "campaign.py").read_text())
    assert sorted(set(found)) == ["_Campaign.run_one"]


# ---------------------------------------------------------------- ledger

LEDGER = {"steps_of", "sys_walls", "system_executions"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "sort", "reverse"}


def ledger_writes(text):
    """(scope, kind) for each write to a ledger attribute, scoped as in
    system_run_references.  A plain `x.attr = value` binds it; storing
    into it (`x.attr[k] = v`, `del x.attr[k]`), an augmented assignment
    (`x.attr += 1`) or a call of a method that changes it
    (`x.attr.append(w)`) changes it."""
    found = []

    def ledger(node):
        return isinstance(node, ast.Attribute) and node.attr in LEDGER

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                found.extend((scope, "binds") for t in targets if ledger(t))
            elif isinstance(child, ast.AugAssign) and ledger(child.target):
                found.append((scope, "changes"))
            elif (isinstance(child, ast.Subscript) and ledger(child.value)
                    and isinstance(child.ctx, (ast.Store, ast.Del))
                    or isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in MUTATORS and ledger(child.func.value)):
                found.append((scope, "changes"))
            visit(child, scope)
    visit(ast.parse(text), "")
    return found


def test_ledger_scanner_names_each_write():
    text = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.sys_walls: list = []\n"
        "        self.steps_of = {}\n"
        "    def a(self, k):\n"
        "        self.steps_of[k] = 1\n"
        "        x = self.steps_of[k] + len(self.sys_walls)\n"
        "        self.steps_of.get(k)\n"
        "    def b(self, w):\n"
        "        self.system_executions += 1\n"
        "        self.sys_walls.append(w)\n"
        "        del self.steps_of[w]\n"
        "def f(c):\n"
        "    c.sys_walls.extend([1])\n"
    )
    assert ledger_writes(text) == [
        ("C.__init__", "binds"), ("C.__init__", "binds"), ("C.a", "changes"),
        ("C.b", "changes"), ("C.b", "changes"), ("C.b", "changes"),
        ("f", "changes")]


def test_only_charge_writes_the_campaign_ledger():
    """Every system execution is charged in one place: its steps, its
    count, and for a run that executed its wall time and its steps for
    repeats.  `__init__` only creates the ledger."""
    found = ledger_writes((PACKAGE / "campaign.py").read_text())
    assert sorted(set(found)) == [("_Campaign.__init__", "binds"),
                                  ("_Campaign.charge", "changes")]


# ---------------------------------------------------------------- one place per job

VALUE_CODECS = {"encode_value", "decode_value", "encode_segments", "decode_segments"}


def codec_references(text):
    """(line, name) of each mention of a value encoder or decoder: a
    name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(text)):
        names = ([a.name for a in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 else [node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        found += [(node.lineno, n) for n in names if n in VALUE_CODECS]
    return found


def branch_goals_made(text):
    """The line of each call of `BranchGoal`, by name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "BranchGoal"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "BranchGoal")]


def test_the_job_scanners_find_each_use():
    text = (
        "from .vm.values import encode_value as ev, sever\n"
        "from .vm import values\n"
        "def f(x):\n"
        "    values.decode_segments(x)\n"
        "    return BranchGoal('f', 1, 'then'), goals.BranchGoal(*x), BranchGoal.parse(x)\n"
    )
    assert sorted(codec_references(text)) == [(1, "encode_value"), (4, "decode_segments")]
    assert branch_goals_made(text) == [5, 5]


def test_only_the_vm_encodes_and_decodes_values():
    """A carve's encoding has one owner, `vm/trace.py`; a module outside
    `vm/` that wants one asks it (`Context.encoding`, `encode_carve`)."""
    found = [f"{p.relative_to(PACKAGE)}:{line}: {name}"
             for p in sorted(PACKAGE.rglob("*.py")) if p.parent.name != "vm"
             for line, name in codec_references(p.read_text())]
    assert found == []


def test_only_lang_goals_makes_a_branch_goal():
    """`branch_goals` names a statement's goals for the goal sets and for
    the compiled code alike."""
    found = [f"{p.relative_to(PACKAGE)}:{line}"
             for p in sorted(PACKAGE.rglob("*.py")) if p != PACKAGE / "lang" / "goals.py"
             for line in branch_goals_made(p.read_text())]
    assert found == []


@pytest.mark.parametrize("section,module,constant", [
    ("## Carve snapshots", "carvelift.vm.trace", "SNAPSHOT_VERSION"),
    ("## Campaign reports", "carvelift.reporting", "REPORT_VERSION"),
])
def test_the_formats_document_states_the_versions_the_code_writes(section, module, constant):
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    body = text[text.index(section):].split("\n## ", 1)[0]
    stated = re.findall(r"A single JSON object,? \(?version (\d+)", body)
    example = re.findall(r'"version": (\d+)', body)
    version = getattr(importlib.import_module(module), constant)
    assert (stated, example) == ([str(version)], [str(version)])


# ---------------------------------------------------------------- report schema

UNTYPED = (dict, object, typing.Any)


def untyped_fields(record):
    """`Record.field` for each field, in `record` and the records its
    fields hold, whose type is or holds `dict`, `object` or `Any`."""
    found = []

    def visit(tp, where):
        if dataclasses.is_dataclass(tp):
            for name, hint in typing.get_type_hints(tp).items():
                visit(hint, f"{tp.__name__}.{name}")
        elif tp in UNTYPED or typing.get_origin(tp) is dict:
            found.append(where)
        else:
            for arg in typing.get_args(tp):
                visit(arg, where)
    visit(record, record.__name__)
    return found


def test_the_untyped_field_scanner_looks_inside_records_and_types():
    @dataclasses.dataclass
    class Inner:
        """A record with an untyped field."""
        ok: tuple[int, ...]
        loose: typing.Any

    @dataclasses.dataclass
    class Outer:
        """A record that holds one."""
        inner: tuple[Inner, ...]
        table: dict[str, int] | None
        blob: object

    assert untyped_fields(Outer) == ["Inner.loose", "Outer.table", "Outer.blob"]


def test_every_report_field_is_typed():
    """The report's records are its whole schema: `parse_report` checks
    each field as its type says, so a field typed `dict`, `object` or
    `Any` would let any JSON value through."""
    assert untyped_fields(carvelift.CampaignReport) == []
