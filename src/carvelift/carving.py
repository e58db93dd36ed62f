"""Carves out of traced system runs: origins and snapshot files.

The tracer records each carve as it is (``vm/trace.py``, where
``CarvedTest`` and ``Context`` live; they are re-exported here, and
``Context.world`` builds a carve's replay world).  This module stamps a
run's carves with the id of the system input they came from, and saves
and loads carves as snapshot files (docs/formats.md).
"""

from __future__ import annotations

import json
from dataclasses import replace

from .errors import FormatError
from .vm.interp import RunResult
from .vm.trace import CarvedTest, CarveStats, decode_carve, encode_carve
# The tracer records carves, takes each call's snapshot
# (RunOptions.max_dump_bytes) and skips the calls of input-reading
# functions; these are re-exported here, where carves are used.
from .lang.ast import input_reading_functions  # noqa: F401
from .vm.trace import Context  # noqa: F401
from .vm.values import snapshot_reachable  # noqa: F401

SNAPSHOT_VERSION = 2


# ---------------------------------------------------------------- carving

def carve_with_stats(result: RunResult, origin: str = "",
                     ) -> tuple[list[CarvedTest], CarveStats]:
    """The carves the traced run `result` recorded, in call order and
    stamped with `origin`, and the run's carve counts."""
    if result.trace is None:
        raise ValueError("carving needs a traced run (use run_with_tracing)")
    return ([replace(c, origin=origin) for c in result.trace],
            result.carve_stats)


# ---------------------------------------------------------------- persistence

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
