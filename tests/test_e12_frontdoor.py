"""E12 in tier-1: the front-door report regenerates byte for byte.

Its grid runs the fleet behind lossy links, gateways and a retrying
transport at three loads and three modes, and kills a card through the front
door, so a change to the net layer, dispatch, the card model or the memo
that moves any simulated value shows here as a failing test, not only as a
report diff.
"""

import pathlib

from benchmarks.bench_e12_frontdoor import build_report

E12_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E12.txt"


def test_e12_report_regenerates_byte_for_byte(default_bank):
    """Every grid row, the chart, the kill drill, the observations and the
    metrics equal the committed report."""
    assert build_report(default_bank).render() == E12_REPORT.read_text()
