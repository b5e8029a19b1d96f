"""E11 in tier-1: the live-migration and defragmentation report regenerates
byte for byte.

Its grid runs the fleet's rebalancer and the cards' defragmenters under every
(skew, fragmentation level, policy) cell, so a change to how a tick plans its
migrations or how a pass packs its frames that moves any simulated value
shows here as a failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e11_rebalance import build_report

E11_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E11.txt"


def test_e11_report_regenerates_byte_for_byte(default_bank):
    """Every grid row, both acceptance bullets, the chart, the defrag drill
    and the metrics equal the committed report."""
    assert build_report(default_bank).render() == E11_REPORT.read_text()
