"""E8 in tier-1: the frame-granularity report regenerates byte for byte.

It sweeps the frame height (CLB rows per frame) over one fabric and runs a
Zipf trace at each, so a change to how frames are sized, written or
allocated that moves a frame count, a hit rate, a fragmentation or a
latency shows here as a failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e8_frame_granularity import build_report

E8_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E8.txt"


def test_e8_report_regenerates_byte_for_byte(default_bank):
    """Every frame height's row, the chart, the observation and the metrics
    equal the committed report."""
    assert build_report(default_bank).render() == E8_REPORT.read_text()
