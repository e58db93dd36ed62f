"""Report document tests: round-trip stability, strict parsing, and the
coverage series read off the discovery log."""

import json
from dataclasses import replace

import pytest

from carvelift.errors import FormatError
from carvelift.vm.trace import CarveStats
from carvelift.reporting import (
    REPORT_VERSION,
    CampaignReport,
    EffectiveInput,
    FunctionRow,
    LiftStats,
    RunConfig,
    SpeedupStats,
    coverage_series,
    emit_series,
    parse_report,
    serialize_report,
)


def sample_report():
    return CampaignReport(
        version=REPORT_VERSION,
        program="keycheck",
        config=RunConfig(rng_seed=7, corpus_out="out"),
        total_goals=28,
        discovered=3,
        first_discovery=(
            (0.0, "main:3:then", "system-seed"),
            (12.5, "check_user:11:else", "system-gen"),
            (99.0, "check_pass:20:then", "lift"),
        ),
        functions=(
            FunctionRow("check_pass", 4, 1, 3, 2, True, False),
            FunctionRow("hash_pw", 4, 4, 5, 0, False, True),
        ),
        carve_stats=CarveStats(carved=8, truncated=1, skipped_incomplete=0,
                               skipped_capped=2, skipped_input_dependent=3),
        lift_stats=LiftStats(unit_winners=12, lift_attempts=10, effective=3,
                             other_goal=2, false_positive=5),
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
    for version in (1, REPORT_VERSION + 1):     # 1 stamped every execution
        doc["version"] = version
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

    def short_entry(doc):
        doc["first_discovery"][0] = [0.0, "main:3:then"]

    def stdin_not_base64(doc):
        doc["effective_inputs"][0]["stdin"] = 5

    def stdin_with_junk(doc):   # a lax decoder reads b"abc"
        doc["effective_inputs"][0]["stdin"] = "Y!WJj"

    def argv_all_junk(doc):     # a lax decoder reads b""
        doc["effective_inputs"][0]["argv"] = ["!"]

    def goals_as_string(doc):
        doc["total_goals"] = "28"

    def discovered_as_bool(doc):
        doc["discovered"] = True

    def count_as_float(doc):
        doc["speedup"]["system_executions"] = 31.0

    def budget_as_string(doc):
        doc["budget_used"] = "nan"

    def budget_not_a_number(doc):   # json.dumps writes NaN
        doc["budget_used"] = float("nan")

    def config_as_list(doc):
        doc["config"] = []

    def program_as_int(doc):
        doc["program"] = 5

    def flag_as_int(doc):
        doc["functions"][0]["skipped"] = 0

    def crash_as_int(doc):
        doc["effective_inputs"][0]["crash"] = 5

    def goals_as_one_string(doc):   # a lax decoder reads one goal a character
        doc["effective_inputs"][0]["goals"] = "check_pass:20:then"

    def discovered_beyond_log(doc):
        doc["discovered"] = 15

    def log_beyond_goals(doc):
        doc["total_goals"] = 2

    def stamps_out_of_order(doc):
        doc["first_discovery"][0][0] = 50.0

    def stamp_after_budget(doc):
        doc["budget_used"] = 98.0

    def config_empty(doc):
        doc["config"] = {}

    def unknown_mode(doc):
        doc["config"]["mode"] = "hybrid"

    def unit_budget_zero(doc):      # RunConfig refuses it, so no campaign ran one
        doc["config"]["unit_budget"] = 0

    def config_extra_key(doc):      # a version-2 config field
        doc["config"]["n_per_seed"] = 10

    def carve_stats_empty(doc):
        doc["carve_stats"] = {}

    def count_as_string(doc):
        doc["carve_stats"]["carved"] = "8"

    def stray_top_level_key(doc):
        doc["mode"] = "bridge"

    def leftover_pct(doc):          # version 3 derived it from lift_stats
        doc["lift_stats"]["pct_lifted"] = 83.3

    for breakage in (drop_row_key, drop_tally, list_for_record, short_entry,
                     stdin_not_base64, stdin_with_junk, argv_all_junk,
                     goals_as_string, discovered_as_bool, count_as_float,
                     budget_as_string, budget_not_a_number, config_as_list,
                     program_as_int, flag_as_int, crash_as_int,
                     goals_as_one_string, discovered_beyond_log,
                     log_beyond_goals, stamps_out_of_order, stamp_after_budget,
                     config_empty, unknown_mode, unit_budget_zero,
                     config_extra_key, carve_stats_empty, count_as_string,
                     stray_top_level_key, leftover_pct):
        doc = json.loads(serialize_report(sample_report()))
        breakage(doc)
        with pytest.raises(FormatError):
            parse_report(json.dumps(doc))


def test_parse_names_the_missing_and_the_extra_keys():
    doc = json.loads(serialize_report(sample_report()))
    doc["speedup"]["speed"] = doc["speedup"].pop("speedup")
    with pytest.raises(FormatError, match=r"missing \['speedup'\], extra \['speed'\]"):
        parse_report(json.dumps(doc))


def test_parse_reads_a_json_integer_as_a_float():
    doc = json.loads(serialize_report(sample_report()))
    doc["budget_used"] = 12345
    r = parse_report(json.dumps(doc))
    assert r == sample_report() and type(r.budget_used) is float


def test_emit_series_writes_two_columns(tmp_path):
    r = sample_report()
    path = tmp_path / "series.txt"
    emit_series(r, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    parsed = [tuple(float(tok) for tok in ln.split()) for ln in lines[1:]]
    assert parsed == list(coverage_series(r))
    fractions = [f for _, f in parsed]
    assert fractions == sorted(fractions)


def test_emit_series_is_byte_stable(tmp_path):
    r = sample_report()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    emit_series(r, a)
    emit_series(r, b)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------- coverage series

def logged(stamps, total_goals, budget_used):
    """The sample report with one first_discovery entry per stamp."""
    return replace(
        sample_report(), total_goals=total_goals, discovered=len(stamps),
        first_discovery=tuple((e, f"f:{i}:then", "system-gen")
                              for i, e in enumerate(stamps)),
        budget_used=budget_used)


def test_series_has_a_point_per_stamp_then_the_closing_point():
    assert coverage_series(sample_report()) == (
        (0.0, 1 / 28), (12.5, 2 / 28), (99.0, 3 / 28), (12345.0, 3 / 28))


def test_series_of_a_report_with_no_goals_is_its_closing_point_at_one():
    assert coverage_series(logged((), 0, 500.0)) == ((500.0, 1.0),)


def test_series_of_a_campaign_whose_first_run_finds_nothing_opens_at_its_first_find():
    # No (0.0, 0.0) point: the series starts at the first discovery.
    assert coverage_series(logged((40.0,), 2, 100.0)) == (
        (40.0, 0.5), (100.0, 0.5))


def test_series_takes_one_point_for_goals_found_on_one_stamp():
    assert coverage_series(logged((10.0, 10.0, 10.0, 30.0), 8, 60.0)) == (
        (10.0, 3 / 8), (30.0, 4 / 8), (60.0, 4 / 8))


def test_series_closes_on_its_last_point_when_that_is_stamped_budget_used():
    assert coverage_series(logged((10.0, 50.0, 50.0), 4, 50.0)) == (
        (10.0, 1 / 4), (50.0, 3 / 4))
