"""E10 in tier-1: the reliability report regenerates byte for byte.

Its grid runs fault-protected fleets under every (policy, upset rate, scrub
period) cell and kills a card with and without healing, so a change to the
fault, scrub or heal path that moves any simulated value shows here as a
failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e10_reliability import build_report

E10_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E10.txt"


def test_e10_report_regenerates_byte_for_byte(default_bank):
    """Every grid row, the acceptance checks, the chart, the kill drill and
    the metrics equal the committed report."""
    assert build_report(default_bank).render() == E10_REPORT.read_text()
