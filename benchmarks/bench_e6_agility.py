"""E6 — Agility: on-demand partial reconfiguration vs. the alternatives.

Three ways to serve a workload whose algorithm mix changes over time:

* the paper's agile co-processor (partial reconfiguration + mini OS),
* a full-reconfiguration co-processor (one algorithm resident at a time,
  whole-device rewrite on every switch),
* a static fixed-function co-processor (whatever fits is loaded once; other
  requests fall back to host software).

The experiment sweeps how many consecutive requests hit the same algorithm
before switching (the "switch interval") and reports mean request latency per
engine — the agile design should win whenever switching is frequent enough to
hurt the static design but not so frequent that reconfiguration dominates.

The timed kernel is the agile engine serving one switching trace.
"""

from __future__ import annotations


from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.baselines import FullReconfigEngine, StaticFixedEngine
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.ondemand import TraceRunner
from repro.workloads import round_robin_trace

WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64"]
SWITCH_INTERVALS = [1, 2, 4, 8, 16, 64]
TRACE_LENGTH = 192


def _config(policy="lru"):
    return CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8,
        replacement_policy=policy, seed=2005,
    )


def test_e6_agility(benchmark, bank):
    subset = bank.subset(WORKING_SET)
    report = ExperimentReport("E6", "Agility: partial reconfiguration vs full reconfiguration vs static")
    table = Table(
        "Mean request latency (us) vs switch interval",
        ["switch_interval", "agile", "full_reconfig", "static_fixed", "agile_vs_full", "agile_vs_static"],
    )
    series = {"agile": [], "full": [], "static": []}
    for interval in SWITCH_INTERVALS:
        trace = round_robin_trace(subset, TRACE_LENGTH, repeats_per_function=interval, seed=7)
        agile = build_coprocessor(config=_config(), bank=subset)
        full = FullReconfigEngine(_config(), subset)
        static = StaticFixedEngine(_config(), subset)
        agile_result = TraceRunner(agile).run(trace)
        full_result = TraceRunner(full).run(trace)
        static_result = TraceRunner(static).run(trace)
        table.add_row(
            interval,
            agile_result.mean_latency_ns / 1e3,
            full_result.mean_latency_ns / 1e3,
            static_result.mean_latency_ns / 1e3,
            full_result.mean_latency_ns / agile_result.mean_latency_ns,
            static_result.mean_latency_ns / agile_result.mean_latency_ns,
        )
        series["agile"].append((float(interval), agile_result.mean_latency_ns / 1e3))
        series["full"].append((float(interval), full_result.mean_latency_ns / 1e3))
        series["static"].append((float(interval), static_result.mean_latency_ns / 1e3))
    report.add_table(table)
    report.add_figure(
        ascii_line_chart("Mean latency (us) vs switch interval", series, width=50, height=12)
    )

    report.observe(
        "The agile co-processor is never slower than the full-reconfiguration design and the "
        "advantage is largest when algorithms switch frequently (small switch intervals)."
    )
    report.observe(
        "The static fixed-function design only competes when its resident subset covers the "
        "workload; functions that do not fit fall back to host software, which dominates its mean latency."
    )
    report.record_metric("agile_vs_full_at_interval_1", float(table.rows[0][4].replace(",", "")))
    report.record_metric("agile_vs_full_at_interval_64", float(table.rows[-1][4].replace(",", "")))
    save_report(report)

    trace = round_robin_trace(subset, TRACE_LENGTH, repeats_per_function=4, seed=7)

    def run_agile():
        agile = build_coprocessor(config=_config(), bank=subset)
        return TraceRunner(agile).run(trace)

    result = benchmark.pedantic(run_agile, rounds=3, iterations=1)
    assert result.requests == TRACE_LENGTH
