"""E6 in tier-1: the agility report regenerates byte for byte.

It serves round-robin traces at six switch intervals on the agile card, the
full-reconfiguration engine and the static engine, so a change to the miss
path, the replacement policy or a baseline that moves any mean latency shows
here as a failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e6_agility import build_report

E6_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E6.txt"


def test_e6_report_regenerates_byte_for_byte(default_bank):
    """The latency table, the chart, both observations and the metrics equal
    the committed report."""
    assert build_report(default_bank).render() == E6_REPORT.read_text()
