"""E9 in tier-1: the fleet-dispatch report regenerates byte for byte.

Its grid serves multi-tenant streams on 2-, 4- and 8-card fleets under every
dispatch policy, and every request goes through the cards' hit fast path, so
a change to dispatch, the card model or the memo that moves any simulated
value shows here as a failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e9_fleet_dispatch import build_report

E9_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E9.txt"


def test_e9_report_regenerates_byte_for_byte(default_bank):
    """Every grid row, the per-tenant and specialisation tables, the
    saturation rows, the chart, the observations and the metrics equal the
    committed report."""
    assert build_report(default_bank).render() == E9_REPORT.read_text()
