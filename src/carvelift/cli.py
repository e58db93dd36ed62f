"""Command-line entry points.

Subcommands: run (a campaign), replay (a stored input or carve
snapshot), carve (dump the carve pool of one system run), goals (list
a program's branch goals).  Exit codes: 0 success, 1 subject failure
surfaced by replay, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bundled import resolve_program, resolve_seeds
from .campaign import MODES, RunConfig, run_campaign
from .carving import carve_with_stats
from .errors import ToolError
from .lang.goals import enumerate_goals
from .reporting import emit_series, serialize_report
from .sysgen import read_input_file
from .vm.interp import RunOptions, call_function, run_system, \
    run_with_tracing
from .vm.trace import load_snapshot, save_snapshot


def _build_parser() -> argparse.ArgumentParser:
    d = RunConfig()     # every run default is RunConfig's
    p = argparse.ArgumentParser(
        prog="carvelift",
        description="Carve unit tests from system runs, fuzz them, and "
                    "lift the winners back to system inputs.")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run a fuzzing campaign")
    run.add_argument("--program", required=True,
                     help="bundled subject name or path to a source file")
    run.add_argument("--seeds", default=None, metavar="DIR",
                     help="seed corpus directory (default: bundled seeds)")
    run.add_argument("--mode", choices=MODES, default=d.mode,
                     help="campaign mode (default: %(default)s)")
    run.add_argument("--budget", type=float, default=d.budget, metavar="SEC",
                     help="wall-clock budget in seconds (default: %(default)g)")
    run.add_argument("--deterministic-clock", type=int,
                     default=d.deterministic_clock, metavar="STEPS",
                     help="budget as an exact VM step count instead of wall "
                          "time (default: off)")
    run.add_argument("--rng-seed", type=int, default=d.rng_seed,
                     help="campaign random seed (default: %(default)s)")
    run.add_argument("--n-per-seed", type=int, default=d.n_per_seed,
                     help="generated system tests per seed "
                          "(default: %(default)s)")
    run.add_argument("--unit-budget", type=int, default=d.unit_budget,
                     help="unit executions per fuzzing round "
                          "(default: %(default)s)")
    run.add_argument("--max-dump-bytes", type=int, default=d.max_dump_bytes,
                     help="context snapshot size budget (default: %(default)s)")
    run.add_argument("--min-match-len", type=int, default=d.min_match_len,
                     help="shortest mapped substring (default: %(default)s)")
    run.add_argument("--first-occurrence-only", action="store_true",
                     default=d.first_occurrence_only,
                     help="lift only the first matched occurrence per "
                          "parameter")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="write the campaign report as JSON")
    run.add_argument("--series", default=None, metavar="PATH",
                     help="write the coverage-over-time series as text")
    run.add_argument("--corpus-out", default=d.corpus_out, metavar="DIR",
                     help="write effective lifted inputs as a seed corpus")

    rep = sub.add_parser("replay", help="re-execute a stored artifact")
    rep.add_argument("--program", required=True)
    rep.add_argument("--input", default=None, metavar="PATH",
                     help="stored system input file")
    rep.add_argument("--snapshot", default=None, metavar="PATH",
                     help="stored carve snapshot")

    cv = sub.add_parser("carve", help="run one input and dump the carve pool")
    cv.add_argument("--program", required=True)
    cv.add_argument("--input", required=True, metavar="PATH")
    cv.add_argument("--out", default=None, metavar="DIR",
                    help="write one snapshot file per carve")
    cv.add_argument("--max-dump-bytes", type=int, default=d.max_dump_bytes,
                    help="context snapshot size budget (default: %(default)s)")

    gl = sub.add_parser("goals", help="list a program's branch goals")
    gl.add_argument("--program", required=True)
    return p


def _describe(status) -> str:
    if status.kind == "exit":
        return f"exit {status.code}"
    if status.kind == "crash":
        return (f"crash {status.crash_kind} in {status.crash_fn} "
                f"at stmt {status.crash_stmt}: {status.message}")
    return f"{status.kind}: {status.message}"


def _cmd_run(args) -> int:
    program, name = resolve_program(args.program)
    seeds = resolve_seeds(args.seeds, name)
    # Each run flag is stored under the name of its RunConfig field.
    cfg = RunConfig(**{f.name: getattr(args, f.name)
                       for f in fields(RunConfig) if hasattr(args, f.name)})
    report = run_campaign(program, seeds, cfg, program_name=name)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(serialize_report(report) + "\n")
    if args.series:
        emit_series(report, args.series)
    ls = report.lift_stats
    print(f"{name} [{report.mode}] goals {report.discovered}"
          f"/{report.total_goals} in {report.total_wall_s:.2f}s "
          f"(budget used: {report.budget_used:g})")
    print(f"lifts: {ls.lift_attempts} attempted, {ls.effective} effective, "
          f"{ls.other_goal} other-goal, {ls.false_positive} false-positive")
    sp = report.speedup
    print(f"executions: {sp.system_executions} system "
          f"(median {sp.median_system_ms:.3f} ms), {sp.unit_executions} unit "
          f"(median {sp.median_unit_ms:.3f} ms), speedup {sp.speedup:.1f}x")
    return 0


def _cmd_replay(args) -> int:
    if (args.input is None) == (args.snapshot is None):
        print("replay needs exactly one of --input or --snapshot",
              file=sys.stderr)
        return 2
    program, _ = resolve_program(args.program)
    if args.input is not None:
        s = read_input_file(args.input)
        result = run_system(program, s)
        print(f"status: {_describe(result.status)}")
        print(f"steps: {result.steps}")
        print(f"coverage: {len(result.coverage)} goals")
        if result.output:
            sys.stdout.write(result.output.decode("latin-1"))
        return 1 if result.status.kind != "exit" else 0

    snap = load_snapshot(args.snapshot)
    fn = snap.start[0]
    cargs, world = snap.context.world()
    result = call_function(program, fn, cargs, world, RunOptions().unit())
    print(f"replayed {fn} (call {snap.start[1]} of {snap.origin or '?'}): "
          f"{_describe(result.status)}")
    if result.status.kind != "exit":
        print("subject failed under replay")
        return 1
    stored = snap.observed_coverage
    got = frozenset(result.coverage)
    if got != stored:
        missing = sorted(str(g) for g in stored - got)
        extra = sorted(str(g) for g in got - stored)
        print(f"coverage mismatch: missing={missing} extra={extra}")
        return 1
    print(f"coverage matches the stored {len(stored)} goals")
    return 0


def _cmd_carve(args) -> int:
    opts = RunOptions(max_dump_bytes=args.max_dump_bytes)
    program, _ = resolve_program(args.program)
    result = run_with_tracing(program, read_input_file(args.input), opts)
    pool = carve_with_stats(result, origin=str(args.input))[0]
    print(f"system status: {_describe(result.status)}; "
          f"{len(pool)} carves")
    for i, c in enumerate(pool):
        leaves = sum(1 for _ in c.context.leaves())
        trunc = " truncated" if c.context.truncated else ""
        print(f"  [{i:03d}] {c.start[0]} call={c.start[1]} leaves={leaves} "
              f"goals={len(c.observed_coverage)}{trunc}")
    if args.out is not None:
        d = Path(args.out)
        d.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(pool):
            save_snapshot(c, d / f"{i:03d}.snap")
        print(f"wrote {len(pool)} snapshots to {d}")
    return 0


def _cmd_goals(args) -> int:
    program, _ = resolve_program(args.program)
    goals = sorted(enumerate_goals(program))
    for g in goals:
        print(g)
    print(f"total {len(goals)}")
    return 0


_DISPATCH = {
    "run": _cmd_run,
    "replay": _cmd_replay,
    "carve": _cmd_carve,
    "goals": _cmd_goals,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself for --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.cmd](args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
