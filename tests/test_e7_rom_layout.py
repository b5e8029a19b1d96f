"""E7 in tier-1: the ROM-layout report regenerates byte for byte.

It downloads growing banks under every E4 codec and refuses an uncompressed
download into a tight ROM, so a change to the ROM's two-ended layout, the
record format or a codec that moves any occupancy shows here as a failing
test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e7_rom_layout import build_report
from repro.core.config import CoprocessorConfig

E7_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E7.txt"


def test_e7_report_regenerates_byte_for_byte(default_bank):
    """The occupancy table, the chart, both observations and the metrics
    equal the committed report."""
    report = build_report(CoprocessorConfig(seed=2005), default_bank)
    assert report.render() == E7_REPORT.read_text()
