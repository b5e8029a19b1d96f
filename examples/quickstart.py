#!/usr/bin/env python3
"""Quickstart: build the default agile co-processor and run functions on demand.

This is the smallest end-to-end tour of the library:

1. build the default card (full function bank, bit-streams generated,
   compressed and downloaded into the on-card ROM);
2. execute a few functions on demand — the first call to each function pays
   the partial-reconfiguration cost, repeats are hits;
3. look at what is resident on the fabric and at the accumulated statistics.

Run with:  python examples/quickstart.py
           python examples/quickstart.py --tiny   (same tour; the flag is
           accepted so the example smoke harness can drive every example
           uniformly — this one is already tiny)
"""

from __future__ import annotations

import sys

from repro import CoprocessorConfig, build_coprocessor


def main(tiny: bool = False) -> None:
    print("Building the default agile algorithm-on-demand co-processor ...")
    coprocessor = build_coprocessor(config=CoprocessorConfig(seed=2005))
    geometry, rom = coprocessor.geometry, coprocessor.rom
    print(f"  fabric : {geometry.columns}x{geometry.rows} CLBs, {geometry.frame_count} frames")
    print(f"  ROM    : {rom.bitstream_bytes_used}/{rom.capacity_bytes} bytes of bit-streams")
    print(f"  policy : {coprocessor.minios.policy.name}, codec {coprocessor.config.codec_name}")
    print()

    # ----------------------------------------------------------- on demand
    requests = [
        ("crc32", b"hello, agile co-processor"),
        ("sha256", b"the quick brown fox jumps over the lazy dog"),
        ("aes128", bytes(range(16))),
        ("crc32", b"hello again"),          # crc32 is still resident: a hit
        ("adder8", bytes([200, 55])),        # a netlist-backed function
    ]
    print(f"{'function':<10} {'hit':<5} {'latency':>12}  output")
    print("-" * 60)
    for name, data in requests:
        result = coprocessor.execute(name, data)
        output_preview = result.output[:8].hex() + ("..." if len(result.output) > 8 else "")
        print(
            f"{name:<10} {'yes' if result.hit else 'no':<5} "
            f"{result.latency_ns / 1e3:>9.3f} us  {output_preview}"
        )
    print()

    # ------------------------------------------------------------ residency
    print("Functions resident on the fabric:", ", ".join(coprocessor.loaded_functions()))
    used = geometry.frame_count - coprocessor.minios.free_count
    print(f"Fabric utilisation: {used / geometry.frame_count:.1%}")
    print()

    # ------------------------------------------------------------ statistics
    stats = coprocessor.stats
    print("Accumulated statistics")
    print(f"  requests {stats.requests}, hit rate {stats.hit_rate:.3f}, evictions {stats.evictions}")
    print(f"  mean reconfiguration {stats.mean_reconfig_ns / 1e3:.3f} us")
    print()
    print("Where did the time go on the last request?")
    for phase, nanoseconds in result.breakdown.items():
        print(f"  {phase:<12} {nanoseconds / 1e3:.3f} us")


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
