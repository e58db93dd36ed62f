"""Command-line interface tests."""

import json
from dataclasses import asdict

from carvelift.campaign import RunConfig
from carvelift.carving import carve_with_stats
from carvelift.cli import _build_parser, main
from carvelift.lang.goals import enumerate_goals
from carvelift.lang.parser import parse
from carvelift.reporting import parse_report
from carvelift.sysgen import write_input_file
from carvelift.vm.interp import run_with_tracing
from carvelift.vm.trace import load_snapshot, save_snapshot

from conftest import BYTES_AS_INT, load_subject, mk_input


def keycheck_seed_file(tmp_path):
    path = tmp_path / "000.input"
    write_input_file(path, mk_input((b"d7wfv", b"xczZ7tz")))
    return path


# ------------------------------------------------------------- usage

def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_program_is_a_usage_error(capsys):
    assert main(["goals", "--program", "no_such_subject"]) == 2
    assert "no_such_subject" in capsys.readouterr().err


def test_bad_flag_value_is_a_usage_error(capsys):
    assert main(["run", "--program", "keycheck", "--budget", "soon"]) == 2


def test_a_wall_budget_that_never_runs_out_is_a_usage_error(capsys):
    for budget in ("nan", "inf"):
        assert main(["run", "--program", "mini_tac", "--budget", budget]) == 2
        assert capsys.readouterr().err == (
            "error: wall budget must be positive and finite\n")


def test_contradictory_config_is_a_usage_error(capsys):
    assert main(["run", "--program", "keycheck", "--mode", "sideways"]) == 2


def test_non_positive_dump_budget_is_a_usage_error(tmp_path, capsys):
    seed = keycheck_seed_file(tmp_path)
    assert main(["carve", "--program", "keycheck", "--input", str(seed),
                 "--max-dump-bytes", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: max_dump_bytes")


def test_min_match_len_below_one_is_a_usage_error(capsys):
    assert main(["run", "--program", "keycheck", "--deterministic-clock",
                 "1000", "--min-match-len", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: min_match_len")


def test_missing_seed_dir_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--program", "keycheck",
                 "--seeds", str(tmp_path / "nowhere")]) == 2


def test_run_help_documents_module_defaults(capsys):
    assert main(["run", "--help"]) == 0
    text = capsys.readouterr().out
    for token in ("10", "200", "65536", "3", "60"):
        assert f"default: {token}" in text


def test_parser_defaults_are_the_run_config_defaults():
    config = asdict(RunConfig())
    parser = _build_parser()
    for argv, flags in (
            (["run", "--program", "keycheck"],
             config.keys() - {"step_limit", "trace_limit"}),
            (["carve", "--program", "keycheck", "--input", "x"],
             {"max_dump_bytes"})):
        parsed = vars(parser.parse_args(argv))
        assert parsed.keys() & config.keys() == flags
        assert {k: parsed[k] for k in flags} == {k: config[k] for k in flags}


# ------------------------------------------------------------- goals

def test_goals_lists_every_branch_goal(capsys):
    assert main(["goals", "--program", "mini_dc"]) == 0
    out = capsys.readouterr().out.splitlines()
    goals = enumerate_goals(load_subject("mini_dc"))
    assert out[-1] == f"total {len(goals)}"
    assert set(out[:-1]) == {str(g) for g in goals}


def test_goals_of_a_source_outside_the_grammar_is_a_usage_error(tmp_path, capsys):
    program = tmp_path / "super.ml"
    program.write_text("fn main() { let x = 2\u00b2; }\n", encoding="utf-8")
    assert main(["goals", "--program", str(program)]) == 2
    assert capsys.readouterr().err == "error: 1:22: unexpected character '\u00b2'\n"


def test_goals_of_a_program_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    program = tmp_path / "latin.ml"
    program.write_bytes(b"# caf\xff\nfn main() { }\n")
    assert main(["goals", "--program", str(program)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {program}: ") and err.count("\n") == 1


# ------------------------------------------------------------- replay

def test_replay_input_prints_the_run(tmp_path, capsys):
    path = keycheck_seed_file(tmp_path)
    assert main(["replay", "--program", "keycheck",
                 "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exit" in out and "unknown user" in out


def test_replay_crashing_input_exits_1(tmp_path, capsys):
    path = tmp_path / "crash.input"
    write_input_file(path, mk_input((b"2-0",), b"aa,bb\n"))
    assert main(["replay", "--program", "mini_cut",
                 "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "crash" in out and "parse_range" in out


def test_replay_snapshot_checks_stored_coverage(tmp_path, capsys):
    prog = load_subject("keycheck")
    result = run_with_tracing(prog, mk_input((b"d7wfv", b"xczZ7tz")))
    carved = next(c for c in carve_with_stats(result)[0]
                  if c.start[0] == "check_user")
    snap = tmp_path / "c.snap"
    save_snapshot(carved, snap)
    assert main(["replay", "--program", "keycheck",
                 "--snapshot", str(snap)]) == 0

    doc = json.loads(snap.read_text())
    doc["observed_coverage"].append("main:1:then")
    bad = tmp_path / "bad.snap"
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--program", "keycheck",
                 "--snapshot", str(bad)]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_replay_snapshot_of_a_call_that_crashes_exits_1(tmp_path, capsys):
    """The carve of f(2), its argument edited to 0: 10 / 0 crashes."""
    source = """
fn f(x: int) -> int { return 10 / x; }
fn main() -> int { return f(2); }
"""
    program = tmp_path / "div.ml"
    program.write_text(source)
    snap = tmp_path / "c.snap"
    save_snapshot(carve_with_stats(run_with_tracing(
        parse(source), mk_input()))[0][0], snap)
    doc = json.loads(snap.read_text())
    doc["roots"] = [["arg[0]", {"t": "int", "v": 0}]]
    snap.write_text(json.dumps(doc))
    assert main(["replay", "--program", str(program),
                 "--snapshot", str(snap)]) == 1
    out = capsys.readouterr().out
    assert "div-zero" in out and out.endswith("subject failed under replay\n")


def test_replay_malformed_snapshot_is_a_usage_error(tmp_path, capsys):
    good = tmp_path / "c.snap"
    prog = load_subject("keycheck")
    save_snapshot(carve_with_stats(run_with_tracing(
        prog, mk_input((b"d7wfv", b"xczZ7tz"))))[0][0], good)
    doc = json.loads(good.read_text())
    bad_goal = json.dumps({**doc, "observed_coverage": ["check_user"]})
    for i, text in enumerate(("[1]", '{"version": 1}', "not json\n",
                              bad_goal)):
        bad = tmp_path / f"bad-{i}.snap"
        bad.write_text(text)
        assert main(["replay", "--program", "keycheck",
                     "--snapshot", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_a_carve_replays_with_an_argument_of_another_type(tmp_path, capsys):
    """check(x: int) ran with bytes; its carve replays as it ran."""
    program = tmp_path / "bytes_as_int.ml"
    program.write_text(BYTES_AS_INT)
    seed = tmp_path / "000.input"
    write_input_file(seed, mk_input((), b"hello"))
    snaps = tmp_path / "snaps"
    assert main(["carve", "--program", str(program), "--input", str(seed),
                 "--out", str(snaps)]) == 0
    assert main(["replay", "--program", str(program),
                 "--snapshot", str(snaps / "000.snap")]) == 0
    assert "coverage matches" in capsys.readouterr().out


REF_PROGRAM = """
fn f(r: ref int) -> int { return len(r); }
fn main() -> int { return f(alloc_array(1, 7)); }
"""


def test_replay_rejects_old_or_out_of_range_snapshots(tmp_path, capsys):
    """A version-1 file, a segment that is not a list, and a ref with a
    negative offset (which would read from the segment's end), an offset
    past its segment's end (len() of it would be negative) or a missing
    segment (a dangling reference) are usage errors."""
    program = tmp_path / "refs.ml"
    program.write_text(REF_PROGRAM)
    good = tmp_path / "c.snap"
    save_snapshot(carve_with_stats(run_with_tracing(
        parse(REF_PROGRAM), mk_input()))[0][0], good)
    replay = ["replay", "--program", str(program), "--snapshot"]
    assert main(replay + [str(good)]) == 0
    capsys.readouterr()
    doc = json.loads(good.read_text())
    v1_segments = {"0": {"type": "int", "len": 9,
                         "elems": [{"t": "int", "v": 7}], "origin": "heap"}}
    docs = [{**doc, "version": 1, "segments": v1_segments},
            {**doc, "segments": v1_segments}]
    for seg, off in ((0, -5), (0, -1), (0, 5), (1, 0)):
        docs.append({**doc,
                     "roots": [["arg[0]", {"t": "ref", "seg": seg, "off": off}]],
                     "segments": {"0": [{"t": "int", "v": 7}]}})
    for i, bad_doc in enumerate(docs):
        bad = tmp_path / f"bad-{i}.snap"
        bad.write_text(json.dumps(bad_doc))
        assert main(replay + [str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


RECORD_PROGRAM = """
record R { a: int }
fn show(r: R) { print(r); }
fn main() { show(R { a: 1 }); }
"""


def test_replay_rejects_a_field_name_print_cannot_write(tmp_path, capsys):
    program = tmp_path / "records.ml"
    program.write_text(RECORD_PROGRAM)
    snap = tmp_path / "c.snap"
    save_snapshot(carve_with_stats(run_with_tracing(
        parse(RECORD_PROGRAM), mk_input()))[0][0], snap)
    replay = ["replay", "--program", str(program), "--snapshot", str(snap)]
    assert main(replay) == 0
    capsys.readouterr()
    doc = json.loads(snap.read_text())
    (path, record), = doc["roots"]
    record["fields"][0][0] = "\u00e9"
    snap.write_text(json.dumps(doc))
    assert main(replay) == 2
    assert capsys.readouterr().err.startswith("error: record and field names must be identifiers")


def test_replay_needs_exactly_one_artifact(tmp_path, capsys):
    assert main(["replay", "--program", "keycheck"]) == 2


# ------------------------------------------------------------- carve

def test_carve_dumps_the_pool(tmp_path, capsys):
    path = keycheck_seed_file(tmp_path)
    out_dir = tmp_path / "snaps"
    assert main(["carve", "--program", "keycheck", "--input", str(path),
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "check_user" in out
    snaps = sorted(out_dir.glob("*.snap"))
    assert snaps
    loaded = load_snapshot(snaps[0])
    assert loaded.start[0] in {"check_user", "check_pass", "hash_pw"}


# ------------------------------------------------------------- run

def test_run_writes_report_series_and_corpus(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    series_path = tmp_path / "series.txt"
    corpus_dir = tmp_path / "corpus"
    code = main([
        "run", "--program", "keycheck", "--mode", "bridge",
        "--deterministic-clock", "400000", "--rng-seed", "7",
        "--report", str(report_path), "--series", str(series_path),
        "--corpus-out", str(corpus_dir),
    ])
    assert code == 0
    r = parse_report(report_path.read_text())
    assert r.program == "keycheck"
    assert r.mode == "bridge"
    assert r.rng_seed == 7
    assert r.lift_stats.effective >= 1
    assert series_path.read_text().startswith("#")
    assert list(corpus_dir.glob("*.input"))
    out = capsys.readouterr().out
    assert "goals" in out and "effective" in out


def test_run_system_only_quick(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main(["run", "--program", "mini_tac", "--mode", "system-only",
                 "--deterministic-clock", "20000",
                 "--report", str(report_path)])
    assert code == 0
    r = parse_report(report_path.read_text())
    assert r.mode == "system-only"
    assert r.lift_stats.unit_executions == 0
