#!/usr/bin/env python3
"""Software-radio DSP pipeline on the agile co-processor.

A receiver processes sample frames with a FIR front-end filter and an FFT;
every time the waveform changes, a matrix-based channel estimation and a
sorting pass (peak picking) are needed as well.  The whole mix does not fit
the FPGA at once, so the mini OS swaps the DSP kernels in and out on demand.

The example also demonstrates *preloading*: when the host knows a waveform
switch is coming it can ask the card to pre-load the estimation kernels so
the switch itself does not stall on reconfiguration.

Run with:  python examples/dsp_pipeline.py
           python examples/dsp_pipeline.py --tiny   (fewer sample frames)
"""

from __future__ import annotations

import struct
import sys

from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.functions.bank import build_default_bank

DSP_SET = ["fir16", "fft256", "matmul8", "bitonic64"]


def sample_frame(index: int, points: int = 256) -> bytes:
    """A deterministic int16 test signal (two tones + ramp)."""
    samples = []
    for n in range(points):
        value = int(4000 * ((n * (index + 3)) % 17 - 8) / 8) + int(2000 * ((n * 7) % 13 - 6) / 6)
        samples.append(max(-32768, min(32767, value)))
    return struct.pack(f"<{points}h", *samples)


def main(tiny: bool = False) -> None:
    bank = build_default_bank().subset(DSP_SET)
    # A fabric sized so the streaming kernels (FIR + FFT) stay resident but the
    # whole DSP mix does not fit at once — waveform switches force swapping.
    config = CoprocessorConfig(fabric_columns=10, fabric_rows=64, clb_rows_per_frame=8, seed=3)
    coprocessor = build_coprocessor(config=config, bank=bank)
    geometry = coprocessor.geometry
    print(f"fabric: {geometry.columns}x{geometry.rows} CLBs in {geometry.frame_count} frames; "
          f"ROM holds {', '.join(bank.names())}")
    print()

    frames = 12 if tiny else 60
    waveform_switch_every = 4 if tiny else 20
    print(f"Processing {frames} sample frames, waveform switch every {waveform_switch_every} frames")
    print(f"{'frame':<6} {'operation':<10} {'hit':<4} latency")
    print("-" * 44)
    stall_time = 0.0
    for frame_index in range(frames):
        data = sample_frame(frame_index)
        for operation in ("fir16", "fft256"):
            result = coprocessor.execute(operation, data)
            if frame_index < 3 or not result.hit:
                print(f"{frame_index:<6} {operation:<10} {'y' if result.hit else 'n':<4} "
                      f"{result.latency_ns / 1e3:.3f} us")
            if not result.hit:
                stall_time += result.breakdown["reconfigure"]
        about_to_switch = (frame_index + 1) % waveform_switch_every == 0
        if about_to_switch:
            # Preload the estimation kernels while the current frame finishes,
            # then run them; the execute calls below are hits.
            coprocessor.preload("matmul8")
            coprocessor.preload("bitonic64")
            estimation = coprocessor.execute("matmul8", bytes(256))
            peaks = coprocessor.execute("bitonic64", data[:128])
            print(f"{frame_index:<6} {'switch':<10} "
                  f"{'y' if estimation.hit and peaks.hit else 'n':<4} "
                  f"{(estimation.latency_ns + peaks.latency_ns) / 1e3:.3f} us (waveform change)")

    print()
    stats = coprocessor.stats
    print(f"requests: {stats.requests}, hit rate: {stats.hit_rate:.2f}, "
          f"reconfigurations: {stats.misses}, evictions: {stats.evictions}")
    print(f"time lost to reconfiguration stalls on the datapath: {stall_time / 1e3:.3f} us")
    print(f"total simulated time: {coprocessor.clock.now / 1e6:.3f} ms")


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
