"""E2 in tier-1: the swap-in latency report regenerates byte for byte.

Each function of the bank is loaded cold with the compressed, the raw and the
overlapped bit-stream, and its ROM, decompression and port phases are
tabled, so a change to the frame-write path that moves any simulated time
shows here as a failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e2_reconfig_latency import build_report
from repro.core.config import CoprocessorConfig

E2_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E2.txt"


def test_e2_report_regenerates_byte_for_byte(default_bank):
    """Every function's phases and variants, the chart, both observations
    and the metrics equal the committed report."""
    report = build_report(CoprocessorConfig(seed=2005), default_bank)
    assert report.render() == E2_REPORT.read_text()
