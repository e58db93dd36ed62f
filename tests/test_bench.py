"""Smoke test of the benchmark harness.

`bench/run.py --self-check` runs every workload at a small share of its
step clock with the whole correctness gate on and no timing.  It wraps
module attributes of the package by name, so a rename of one of them, or
a broken gate, shows up here rather than at the next measurement.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
