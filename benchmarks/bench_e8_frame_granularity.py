"""E8 — Ablation: frame granularity.

The paper defines the frame as "a prespecified number of Logic Blocks and the
relevant Switch Blocks" but does not fix the number.  This ablation sweeps the
frame height (CLB rows per frame) while keeping the fabric size constant and
measures the trade-off it controls:

* coarse frames → fewer, larger reconfiguration quanta → more internal
  fragmentation (LUTs reserved but unused);
* fine frames → less fragmentation, but more per-frame overhead in the
  bit-stream and the configuration port.

The report states how far the hit rate follows, from its own table.
``tests/test_e8_frame_granularity.py`` holds :func:`build_report` equal to the
committed report.

The timed kernel is a Zipf trace on the finest-granularity configuration.
"""

from __future__ import annotations


from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.ondemand import TraceRunner
from repro.workloads import zipf_trace

WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
FRAME_HEIGHTS = [2, 4, 8, 16]
TRACE_LENGTH = 250


def _internal_fragmentation(copro):
    """Fraction of LUTs in occupied frames that hold no logic."""
    geometry = copro.geometry
    reserved = 0
    used = 0
    for function_name, frames in copro.device.memory.owners().items():
        reserved += len(frames) * geometry.luts_per_frame
        used += min(
            copro.bank.by_name(function_name).spec.lut_estimate,
            len(frames) * geometry.luts_per_frame,
        )
    if reserved == 0:
        return 0.0
    return 1.0 - used / reserved


def build_report(bank) -> ExperimentReport:
    """The whole E8 report: the frame-height sweep, the chart, the observation
    and the metrics."""
    subset = bank.subset(WORKING_SET)
    report = ExperimentReport("E8", "Ablation: frame granularity (CLB rows per frame)")
    table = Table(
        "Frame height vs frames, fragmentation, hit rate and reconfiguration latency",
        ["clb_rows_per_frame", "frames", "frame_KiB", "hit_rate", "internal_frag",
         "mean_reconfig_us", "mean_latency_us"],
    )
    series = {"hit_rate": [], "fragmentation": []}
    for height in FRAME_HEIGHTS:
        config = CoprocessorConfig(
            fabric_columns=8, fabric_rows=32, clb_rows_per_frame=height, seed=2005,
        )
        copro = build_coprocessor(config=config, bank=subset)
        trace = zipf_trace(subset, TRACE_LENGTH, skew=1.1, seed=11)
        result = TraceRunner(copro).run(trace)
        fragmentation = _internal_fragmentation(copro)
        table.add_row(
            height,
            copro.geometry.frame_count,
            copro.geometry.frame_config_bytes / 1024.0,
            result.hit_rate,
            fragmentation,
            copro.stats.mean_reconfig_ns / 1e3,
            result.mean_latency_ns / 1e3,
        )
        series["hit_rate"].append((float(height), result.hit_rate))
        series["fragmentation"].append((float(height), fragmentation))
    report.add_table(table)
    report.add_figure(
        ascii_line_chart("Hit rate and internal fragmentation vs frame height", series, width=40, height=10)
    )
    hit_rates = [float(row[3]) for row in table.rows]
    fragmentation = [float(row[4]) for row in table.rows]
    held = max(h for h, rate in zip(FRAME_HEIGHTS, hit_rates) if rate == hit_rates[0])
    plateau = min(h for h, frag in zip(FRAME_HEIGHTS, fragmentation) if frag == fragmentation[-1])
    report.observe(
        "Coarser frames waste more of the fabric on internal fragmentation "
        f"({fragmentation[0]:.2f} at {FRAME_HEIGHTS[0]} rows/frame, {fragmentation[-1]:.2f} from "
        f"{plateau} rows/frame on), but the hit rate under a skewed workload barely moves: "
        f"{hit_rates[0]:.4f} up to {held} rows/frame, {hit_rates[-1]:.4f} at {FRAME_HEIGHTS[-1]}."
    )
    report.record_metric("fragmentation_finest", fragmentation[0])
    report.record_metric("fragmentation_coarsest", fragmentation[-1])
    report.record_metric("hit_rate_finest", hit_rates[0])
    report.record_metric("hit_rate_coarsest", hit_rates[-1])
    return report


def test_e8_frame_granularity(benchmark, bank):
    save_report(build_report(bank))

    subset = bank.subset(WORKING_SET)
    config = CoprocessorConfig(fabric_columns=8, fabric_rows=32, clb_rows_per_frame=FRAME_HEIGHTS[0], seed=2005)
    trace = zipf_trace(subset, TRACE_LENGTH, skew=1.1, seed=11)

    def run_finest():
        copro = build_coprocessor(config=config, bank=subset)
        return TraceRunner(copro).run(trace)

    result = benchmark.pedantic(run_finest, rounds=3, iterations=1)
    assert result.requests == TRACE_LENGTH
