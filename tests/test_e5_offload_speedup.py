"""E5 in tier-1: the offload-speedup report regenerates byte for byte.

It sweeps four bank functions over five batch sizes through the host driver
and the host-only baseline, so a change to the card model, the PCI bus, the
driver or the software-cost model that moves any speedup shows here as a
failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e5_offload_speedup import build_report

E5_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E5.txt"


def test_e5_report_regenerates_byte_for_byte(default_bank):
    """The speedup table, the chart, both observations and the crossover
    metrics equal the committed report."""
    assert build_report(default_bank).render() == E5_REPORT.read_text()
