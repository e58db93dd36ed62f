"""Source hygiene checks over the package's own modules.

A top-level import whose name the module never uses is dead weight and
hides what the module really depends on.  Package __init__ files are
left out: they import names to re-export them.  An import that is kept
on purpose carries a `# noqa: F401` marker.  What a package does export,
its `__all__`, must name only what it defines.  A field of a record one
stage hands the next must be read somewhere, or no stage needs it.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

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
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


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


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 10
    found = [f"{p.relative_to(PACKAGE)}:{line}: {name}"
             for p in modules for line, name in unused_imports(p.read_text())]
    assert found == []


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
