#!/usr/bin/env python3
"""Explore the mini OS design space: replacement policies and frame granularity.

The paper fixes one frame replacement policy (evict the algorithm with the
oldest access time stamp) and leaves the frame size as a design parameter.
This example sweeps both on a fabric that is deliberately too small for the
working set, so the choices actually matter, and prints the resulting hit
rates and latencies as tables and ASCII charts.

Run with:  python examples/policy_explorer.py
           python examples/policy_explorer.py --tiny   (short traces)
"""

from __future__ import annotations

import sys

from repro.analysis.figures import ascii_bar_chart
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.ondemand import TraceRunner
from repro.functions.bank import build_default_bank
from repro.workloads import phased_trace, zipf_trace

WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
#: The mini OS's replacement policies (``CoprocessorConfig.replacement_policy``).
POLICIES = ("fifo", "lfu", "lru", "random")


def sweep_policies(bank, trace_length: int = 250) -> None:
    print("=== Replacement policy sweep (fabric: 32 frames, working set needs ~63) ===\n")
    table = Table("Hit rate and mean latency per policy", ["policy", "trace", "hit_rate", "mean_latency_us"])
    chart = {}
    for policy in POLICIES:
        for trace_name, trace in (
            ("zipf", zipf_trace(bank, trace_length, skew=1.2, seed=7)),
            ("phased", phased_trace(bank, trace_length, phase_length=40, seed=7)),
        ):
            config = CoprocessorConfig(
                fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8,
                replacement_policy=policy, seed=7,
            )
            coprocessor = build_coprocessor(config=config, bank=bank)
            result = TraceRunner(coprocessor).run(trace)
            table.add_row(policy, trace_name, result.hit_rate, result.mean_latency_ns / 1e3)
            if trace_name == "zipf":
                chart[policy] = result.hit_rate
    print(table.render())
    print()
    print(ascii_bar_chart("Hit rate on the Zipf trace (higher is better)", chart))
    print()


def sweep_frame_granularity(bank, trace_length: int = 250) -> None:
    print("=== Frame granularity sweep (same fabric area, different frame heights) ===\n")
    table = Table(
        "Frame height vs frames / hit rate / mean latency",
        ["clb_rows_per_frame", "frames", "hit_rate", "mean_latency_us"],
    )
    for height in (2, 4, 8, 16):
        config = CoprocessorConfig(
            fabric_columns=8, fabric_rows=32, clb_rows_per_frame=height, seed=7,
        )
        coprocessor = build_coprocessor(config=config, bank=bank)
        result = TraceRunner(coprocessor).run(
            zipf_trace(bank, trace_length, skew=1.1, seed=9)
        )
        table.add_row(height, coprocessor.geometry.frame_count, result.hit_rate, result.mean_latency_ns / 1e3)
    print(table.render())
    print()
    print("Finer frames waste less of the fabric on internal fragmentation, so more")
    print("functions stay resident and the hit rate rises — at the cost of more")
    print("per-frame overhead in the bit-stream and the configuration port.")


def main(tiny: bool = False) -> None:
    bank = build_default_bank().subset(WORKING_SET)
    trace_length = 40 if tiny else 250
    sweep_policies(bank, trace_length=trace_length)
    sweep_frame_granularity(bank, trace_length=trace_length)


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
