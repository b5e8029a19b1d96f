"""E4 in tier-1: the compression report regenerates byte for byte.

It compresses every bank function's raw bit-stream with every codec and
checks each windowed round trip, so a change to a codec, the window format
or bit-stream generation that moves any ratio shows here as a failing test,
not only as a report diff.
"""

import pathlib

from benchmarks.bench_e4_compression import build_report, raw_bitstreams
from repro.core.config import CoprocessorConfig

E4_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E4.txt"


def test_e4_report_regenerates_byte_for_byte(default_bank):
    """Both ratio tables, the chart, the observations and the metrics equal
    the committed report."""
    raw = raw_bitstreams(CoprocessorConfig(seed=2005), default_bank)
    assert build_report(raw).render() == E4_REPORT.read_text()
