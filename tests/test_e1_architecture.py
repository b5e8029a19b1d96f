"""E1 in tier-1: the architecture report regenerates byte for byte.

It sends one miss and one hit per bank function through the host driver of
a traced default card, so a change to the card model, the codecs or the
driver that moves any footprint, latency or trace count shows here as a
failing test, not only as a report diff.
"""

import pathlib

from benchmarks.bench_e1_architecture import build_report, build_traced_driver
from repro.core.config import CoprocessorConfig

E1_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E1.txt"


def test_e1_report_regenerates_byte_for_byte(default_bank):
    """Every function's footprint and latencies, the block table, both
    observations and the metrics equal the committed report."""
    driver = build_traced_driver(CoprocessorConfig(seed=2005), default_bank)
    assert build_report(driver, default_bank).render() == E1_REPORT.read_text()
