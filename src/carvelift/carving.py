"""Carves out of traced system runs, stamped with their origin.

The tracer records each carve as it is (``vm/trace.py``, where
``CarvedTest``, ``Context`` and the snapshot files live).  This module
stamps a run's carves with the id of the system input they came from.
"""

from __future__ import annotations

from dataclasses import replace

from .vm.interp import RunResult
from .vm.trace import CarvedTest, CarveStats
# Kept for bench/spans.py, which wraps these names; the tracer calls the
# functions where they are defined, so nothing calls them through here.
from .lang.ast import input_reading_functions  # noqa: F401
from .vm.values import snapshot_reachable  # noqa: F401


def carve_with_stats(result: RunResult, origin: str = "",
                     ) -> tuple[list[CarvedTest], CarveStats]:
    """The carves the traced run `result` recorded, in call order and
    stamped with `origin`, and the run's carve counts."""
    if result.trace is None:
        raise ValueError("carving needs a traced run (use run_with_tracing)")
    return ([replace(c, origin=origin) for c in result.trace],
            result.carve_stats)
