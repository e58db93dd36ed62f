"""Report document tests: round-trip stability and series emission."""

import json

import pytest

from carvelift.errors import FormatError
from carvelift.reporting import (
    REPORT_VERSION,
    CampaignReport,
    EffectiveInput,
    FunctionRow,
    LiftStats,
    SpeedupStats,
    emit_series,
    parse_report,
    serialize_report,
)


def sample_report(series=((0.0, 0.0), (12.5, 0.25), (99.0, 1 / 3))):
    return CampaignReport(
        version=REPORT_VERSION,
        program="keycheck",
        mode="bridge",
        rng_seed=7,
        config={"mode": "bridge", "budget": 60.0, "n_per_seed": 10,
                "unit_budget": 200, "deterministic_clock": None,
                "first_occurrence_only": False},
        total_goals=28,
        discovered=9,
        coverage_series=tuple(series),
        first_discovery=(
            (0.0, "main:3:then", "system-seed"),
            (12.5, "check_user:11:else", "system-gen"),
            (99.0, "check_pass:20:then", "lift"),
        ),
        functions=(
            FunctionRow("check_pass", 4, 1, 3, 2, True, False),
            FunctionRow("hash_pw", 4, 4, 5, 0, False, True),
        ),
        carve_stats={"carved": 8, "truncated": 1, "skipped_incomplete": 0,
                     "skipped_capped": 2, "skipped_input_dependent": 3},
        lift_stats=LiftStats(unit_executions=400, unit_winners=12,
                             lift_attempts=10, effective=3, other_goal=2,
                             false_positive=5),
        speedup=SpeedupStats(system_executions=31, unit_executions=400,
                             median_system_ms=8.0, median_unit_ms=0.5,
                             speedup=16.0),
        effective_inputs=(
            EffectiveInput(argv=(b"admin", b"\xff\x00pw"), stdin=b"x\ny",
                           goals=("check_pass:20:then",),
                           crash=None, corpus_path="out/000.input"),
            EffectiveInput(argv=(b"2-0",), stdin=b"",
                           goals=(), crash="abort@parse_range",
                           corpus_path=None),
        ),
        total_wall_s=1.734501,
        budget_used=12345.0,
        system_wall_total_s=0.91,
    )


def test_report_round_trip():
    r = sample_report()
    assert parse_report(serialize_report(r)) == r


def test_serialized_form_is_plain_json_with_version():
    doc = json.loads(serialize_report(sample_report()))
    assert doc["version"] == REPORT_VERSION
    assert doc["program"] == "keycheck"
    assert doc["lift_stats"]["effective"] == 3


def test_parse_rejects_other_versions():
    doc = json.loads(serialize_report(sample_report()))
    doc["version"] = REPORT_VERSION + 1
    with pytest.raises(FormatError):
        parse_report(json.dumps(doc))


def test_parse_rejects_malformed_documents():
    with pytest.raises(FormatError):
        parse_report("not json at all {")
    with pytest.raises(FormatError):
        parse_report(json.dumps({"version": REPORT_VERSION}))


def test_parse_rejects_malformed_records():
    def drop_row_key(doc):
        del doc["functions"][0]["skipped"]

    def drop_tally(doc):
        del doc["lift_stats"]["effective"]

    def list_for_record(doc):
        doc["speedup"] = [31, 400]

    def short_pair(doc):
        doc["coverage_series"].append([1.0])

    def stdin_not_base64(doc):
        doc["effective_inputs"][0]["stdin"] = 5

    def stdin_with_junk(doc):   # a lax decoder reads b"abc"
        doc["effective_inputs"][0]["stdin"] = "Y!WJj"

    def argv_all_junk(doc):     # a lax decoder reads b""
        doc["effective_inputs"][0]["argv"] = ["!"]

    for breakage in (drop_row_key, drop_tally, list_for_record, short_pair,
                     stdin_not_base64, stdin_with_junk, argv_all_junk):
        doc = json.loads(serialize_report(sample_report()))
        breakage(doc)
        with pytest.raises(FormatError):
            parse_report(json.dumps(doc))


def test_percentages_derive_from_counts():
    ls = LiftStats(unit_executions=400, unit_winners=12, lift_attempts=10,
                   effective=3, other_goal=2, false_positive=5)
    assert ls.pct_effective == pytest.approx(30.0)
    assert ls.pct_lifted == pytest.approx(100.0 * 10 / 12)
    empty = LiftStats()
    assert empty.pct_effective == 0.0
    assert empty.pct_lifted == 0.0


def test_emit_series_writes_two_columns(tmp_path):
    r = sample_report()
    path = tmp_path / "series.txt"
    emit_series(r, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + len(r.coverage_series)
    parsed = [tuple(float(tok) for tok in ln.split()) for ln in lines[1:]]
    assert parsed == [(e, f) for e, f in r.coverage_series]
    fractions = [f for _, f in parsed]
    assert fractions == sorted(fractions)


def test_emit_series_is_byte_stable(tmp_path):
    r = sample_report()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    emit_series(r, a)
    emit_series(r, b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_series_header_only_when_empty(tmp_path):
    r = sample_report(series=())
    path = tmp_path / "empty.txt"
    emit_series(r, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")
