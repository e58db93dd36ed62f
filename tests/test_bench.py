"""Smoke tests of the benchmark harness.

`bench/run.py --self-check` runs every workload at a small share of its
step clock with the whole correctness gate on and no timing.  It wraps
module attributes of the package by name, so a rename of one of them, or
a broken gate, shows up here rather than at the next measurement.  The
speed probes skip a missing attribute silently, so their names are
checked on their own.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_wrap_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    worker = importlib.import_module("worker")
    points = [(module, attr) for module, attr, _, _ in spans.POINTS]
    points += list(worker.PROBE_POINTS)
    missing = [f"{module.__name__}.{attr}" for module, attr in points
               if not callable(getattr(module, attr, None))]
    assert not missing
