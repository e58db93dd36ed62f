"""Whole wall-clock campaigns stay small, however many executions they run.

Each campaign runs through the CLI in a fresh interpreter, which reads
its own peak RSS (`ru_maxrss`) when the campaign is done.  They take
about 30 s and 60 s, so they run only when CARVELIFT_LONG_CAMPAIGNS is
set (the weekly CI job sets it).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from carvelift.reporting import parse_report

SRC = str(Path(__file__).resolve().parent.parent / "src")
PEAK_RSS_LIMIT_KB = 100 * 1024
REPORT_SIZE_LIMIT = 100 * 1024

CLI_WITH_PEAK_RSS = """
import resource, sys
from carvelift.cli import main
code = main(sys.argv[1:])
print("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


@pytest.mark.skipif(not os.environ.get("CARVELIFT_LONG_CAMPAIGNS"),
                    reason="set CARVELIFT_LONG_CAMPAIGNS to run")
@pytest.mark.parametrize("args", [
    ["--program", "mini_dc"],                                   # the defaults
    ["--program", "mini_sed", "--mode", "system-only", "--budget", "60"],
], ids=["mini_dc-default", "mini_sed-system-only-60s"])
def test_a_long_campaign_peaks_under_100_mb_and_reports_under_100_kb(args, tmp_path):
    report = tmp_path / "report.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", CLI_WITH_PEAK_RSS, "run", *args, "--report", str(report)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak_kb = int(proc.stdout.split("peak_rss_kb")[-1])
    r = parse_report(report.read_text(encoding="ascii"))
    print(f"{' '.join(args)}: peak {peak_kb / 1024:.1f} MB, report "
          f"{report.stat().st_size} bytes, {r.discovered}/{r.total_goals} goals, "
          f"{r.speedup.system_executions} system executions, "
          f"last goal at {r.first_discovery[-1][0]:.1f} s")
    assert peak_kb < PEAK_RSS_LIMIT_KB
    assert report.stat().st_size < REPORT_SIZE_LIMIT
    assert len(r.coverage_series) <= r.total_goals + 1
