"""E6 — Agility: on-demand partial reconfiguration vs. the alternatives.

Three ways to serve a workload whose algorithm mix changes over time:

* the paper's agile co-processor (partial reconfiguration + mini OS),
* a full-reconfiguration co-processor (one algorithm resident at a time,
  whole-device rewrite on every switch),
* a static fixed-function co-processor (whatever fits is loaded once; other
  requests fall back to host software).

The experiment sweeps how many consecutive requests hit the same algorithm
before switching (the "switch interval") and reports mean request latency per
engine.  Agile beats full reconfiguration at every interval (asserted).  The
static design's bullet is computed from the run: on this workload a third of
the requests fall back to host software, and the fallback still costs less
than agile's reconfigurations, so static is fastest at every interval.

The report is byte-identical across processes, and
``tests/test_e6_agility.py`` holds :func:`build_report` equal to the
committed report in tier-1.

The timed kernel is the agile engine serving one switching trace.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table, format_value
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


def _span(values, unit=""):
    """``low-high`` of *values* as table cells, or one cell when they agree."""
    low, high = format_value(min(values)), format_value(max(values))
    return f"{low}{unit}" if low == high else f"{low}-{high}{unit}"


def _static_claim(subset, resident, fallback, agile_vs_static):
    """The static design's bullet, from the run: what it keeps resident,
    what falls back to host software and what that costs, and where static
    beats agile.  *fallback* holds one ``(calls, software mean ns, fabric
    mean ns, software share of the total latency)`` per switch interval."""
    geometry = _config().geometry()
    frames = sum(subset.by_name(name).frames_required(geometry) for name in resident)
    software = [name for name in WORKING_SET if name not in resident]
    calls, software_ns, fabric_ns, share = zip(*fallback)
    agile_wins = [
        interval for interval, ratio in zip(SWITCH_INTERVALS, agile_vs_static) if ratio > 1.0
    ]
    if agile_wins:
        verdict = f"agile is faster at switch intervals {agile_wins} and static at the others"
    else:
        verdict = (
            "static is faster than agile at every switch interval "
            f"(agile_vs_static {_span(agile_vs_static)}): a software call costs less than "
            "agile's reconfigurations, so static competes without covering the workload"
        )
    return (
        f"The static fixed-function design keeps {', '.join(resident)} resident ({frames} of "
        f"{geometry.frame_count} frames) and runs {' and '.join(software)} in host software: "
        f"{_span(calls)} of the {TRACE_LENGTH} requests per interval. A software call takes "
        f"{_span([ns / 1e3 for ns in software_ns], ' us')} against "
        f"{_span([ns / 1e3 for ns in fabric_ns], ' us')} on the fabric "
        f"({_span([100 * part for part in share], '%')} of static's total latency), and {verdict}."
    )


def build_report(bank) -> ExperimentReport:
    """The whole E6 report: the latency table, the chart, both observations
    and the metrics."""
    subset = bank.subset(WORKING_SET)
    report = ExperimentReport("E6", "Agility: partial reconfiguration vs full reconfiguration vs static")
    table = Table(
        "Mean request latency (us) vs switch interval",
        ["switch_interval", "agile", "full_reconfig", "static_fixed", "agile_vs_full", "agile_vs_static"],
    )
    series = {"agile": [], "full": [], "static": []}
    fallback = []
    for interval in SWITCH_INTERVALS:
        trace = round_robin_trace(subset, TRACE_LENGTH, repeats_per_function=interval, seed=7)
        agile = build_coprocessor(config=_config(), bank=subset)
        full = FullReconfigEngine(_config(), subset)
        static = StaticFixedEngine(_config(), subset)
        agile_result = TraceRunner(agile).run(trace)
        full_result = TraceRunner(full).run(trace)
        static_result = TraceRunner(static).run(trace)
        software, fabric = [], []
        for request, record in zip(trace, static_result.records):
            (fabric if request.function in static.resident else software).append(record.latency_ns)
        fallback.append(
            (
                len(software),
                sum(software) / len(software),
                sum(fabric) / len(fabric),
                sum(software) / (sum(software) + sum(fabric)),
            )
        )
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

    # The first bullet's claim, checked: agile never loses to full
    # reconfiguration, and its advantage shrinks as the switch interval grows.
    agile_vs_full = [full / agile for (_, agile), (_, full) in zip(series["agile"], series["full"])]
    assert min(agile_vs_full) >= 1.0 and agile_vs_full == sorted(agile_vs_full, reverse=True)
    report.observe(
        "The agile co-processor is never slower than the full-reconfiguration design and the "
        "advantage is largest when algorithms switch frequently (small switch intervals)."
    )
    agile_vs_static = [
        static / agile for (_, agile), (_, static) in zip(series["agile"], series["static"])
    ]
    report.observe(_static_claim(subset, static.resident, fallback, agile_vs_static))
    report.record_metric("agile_vs_full_at_interval_1", float(table.rows[0][4].replace(",", "")))
    report.record_metric("agile_vs_full_at_interval_64", float(table.rows[-1][4].replace(",", "")))
    return report


def test_e6_agility(benchmark, bank):
    save_report(build_report(bank))

    subset = bank.subset(WORKING_SET)
    trace = round_robin_trace(subset, TRACE_LENGTH, repeats_per_function=4, seed=7)

    def run_agile():
        agile = build_coprocessor(config=_config(), bank=subset)
        return TraceRunner(agile).run(trace)

    result = benchmark.pedantic(run_agile, rounds=3, iterations=1)
    assert result.requests == TRACE_LENGTH
