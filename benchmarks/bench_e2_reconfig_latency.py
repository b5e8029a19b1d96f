"""E2 — On-demand swap-in latency: partial vs. full, compressed vs. raw.

For every function in the bank the experiment measures the card-side
reconfiguration latency and its three phases — ROM fetch, windowed
decompression, configuration-port transfer (frame writes plus the closing
CRC check) — as the simulator reports them, in four variants:

* partial reconfiguration with the default LZ77-compressed bit-stream,
* partial reconfiguration with an uncompressed (null codec) bit-stream,
* partial reconfiguration with a pipelined configuration module, which
  decompresses window i+1 while window i is written (the clock runs the
  overlapped time),
* the full-device reconfiguration a non-partially-reconfigurable co-processor
  would pay (the paper's motivation for partial reconfiguration).

The phases add up to the serial latency exactly; ``tests/test_miss_formula.py``
holds each one equal to its closed form, and ``tests/test_e2_reconfig_latency.py``
holds :func:`build_report` equal to the committed report.

The timed kernel is one complete partial reconfiguration of a mid-sized
function (sha1).
"""

from __future__ import annotations


from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor


def _miss_latency(config, bank, name):
    """Reconfiguration report for one cold load of *name*."""
    copro = build_coprocessor(config=config, bank=bank, functions=[name])
    return copro.preload(name).reconfiguration


def _full_device_time(copro, frames):
    port = copro.device.port
    remaining = copro.geometry.frame_count - frames
    return remaining * port.write_time_ns(copro.geometry.frame_config_bytes)


def build_report(default_config, bank) -> ExperimentReport:
    """The whole E2 report: every function's phases and variants, the chart,
    the observations and the metrics."""
    report = ExperimentReport("E2", "On-demand swap-in latency per function")
    codec = default_config.codec_name
    table = Table(
        f"Reconfiguration latency (us): phases of partial/{codec}, then partial/{codec} vs "
        "partial/raw vs overlapped vs full-device",
        ["function", "frames", "rom", "decompress", "port", "partial_compressed", "partial_raw",
         "partial_overlap", "full_device", "full/partial"],
    )
    chart_data = {}
    largest = {"rom": 0, "decompress": 0, "port": 0}
    for function in bank:
        name = function.name
        compressed = _miss_latency(default_config, bank, name)
        phases = {
            "rom": compressed.rom_time_ns,
            "decompress": compressed.decompress_time_ns,
            "port": compressed.port_time_ns,
        }
        assert sum(phases.values()) == compressed.total_time_ns
        largest[max(phases, key=phases.get)] += 1
        raw = _miss_latency(default_config.with_overrides(codec_name="null"), bank, name)
        overlapped = _miss_latency(
            default_config.with_overrides(overlap_decompress=True), bank, name
        )
        copro = build_coprocessor(config=default_config, bank=bank, functions=[name])
        full_ns = compressed.total_time_ns + _full_device_time(copro, compressed.frames)
        table.add_row(
            name,
            compressed.frames,
            *(phase / 1e3 for phase in phases.values()),
            compressed.total_time_ns / 1e3,
            raw.total_time_ns / 1e3,
            overlapped.total_time_ns / 1e3,
            full_ns / 1e3,
            full_ns / compressed.total_time_ns,
        )
        chart_data[name] = compressed.total_time_ns / 1e3
    table.sort_by("frames")
    report.add_table(table)
    report.add_figure(
        ascii_bar_chart(f"Partial reconfiguration latency (us, {codec})", chart_data, unit="us")
    )
    report.observe(
        "Partial reconfiguration latency scales with the function's frame count; "
        "full-device reconfiguration costs a large constant on top, so small "
        "functions benefit the most from partial reconfiguration."
    )
    dominant = max(largest, key=largest.get)
    report.observe(
        f"The {dominant} phase is the largest of the three for {largest[dominant]} of "
        f"{len(table.rows)} functions (rom {largest['rom']}, decompress "
        f"{largest['decompress']}, port {largest['port']})."
    )
    ratios = [float(row[-1].replace(",", "")) for row in table.rows]
    report.record_metric("min_full_over_partial", min(ratios))
    report.record_metric("max_full_over_partial", max(ratios))
    return report


def test_e2_reconfiguration_latency(benchmark, default_config, bank):
    save_report(build_report(default_config, bank))

    # Timed kernel: one partial reconfiguration of sha1 (mid-sized function).
    config = default_config

    def reconfigure_once():
        copro = build_coprocessor(config=config, bank=bank, functions=["sha1"])
        return copro.preload("sha1").reconfiguration

    result = benchmark.pedantic(reconfigure_once, rounds=3, iterations=1)
    assert result.frames > 0
