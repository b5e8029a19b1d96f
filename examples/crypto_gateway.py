#!/usr/bin/env python3
"""IPSec-style crypto gateway served by the agile co-processor over PCI.

This example reproduces the application scenario the paper's references
motivate (algorithm-agile cryptography): a gateway terminates security
associations that use different transforms (AES or DES for bulk encryption,
SHA-256 or SHA-1 for authentication) and periodically performs an RSA-style
key exchange.  The co-processor swaps the required functions in and out on
demand, and the example compares three ways of serving the same packet trace:

* the agile co-processor (through the full PCI/host-driver path),
* a host-only software implementation,
* a static fixed-function accelerator that holds what fits the fabric, for good.

Run with:  python examples/crypto_gateway.py
           python examples/crypto_gateway.py --tiny   (short trace, small payloads)
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.baselines import HostOnlyEngine, StaticFixedEngine
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.ondemand import TraceRunner
from repro.functions.bank import build_default_bank
from repro.workloads import ipsec_gateway_trace


def main(tiny: bool = False) -> None:
    bank = build_default_bank()
    # The gateway only needs the crypto/hash subset of the bank.
    gateway_bank = bank.subset(["aes128", "des", "sha1", "sha256", "modexp512"])
    config = CoprocessorConfig(seed=42)

    packets = 40 if tiny else 500
    payload_blocks = 4 if tiny else 64
    rekey_interval = 10 if tiny else 50
    print(f"Generating the packet trace ({packets} packets, rekey every {rekey_interval}) ...")
    trace = ipsec_gateway_trace(
        gateway_bank, packets=packets, rekey_interval=rekey_interval, seed=42,
        payload_blocks=payload_blocks,
    )
    counts = Counter(request.function for request in trace)
    mix = ", ".join(f"{name}:{count}" for name, count in counts.most_common())
    print(f"  {len(trace)} requests over {len(counts)} functions ({mix})")
    print()

    static = StaticFixedEngine(config, gateway_bank)
    engines = {
        "agile co-processor": build_coprocessor(config=config, bank=gateway_bank),
        "host-only software": HostOnlyEngine(gateway_bank),
        f"static accelerator ({'+'.join(static.resident)})": static,
    }

    print(f"{'engine':<44} {'mean latency':>12}  {'p95':>12} {'hit rate':<9} throughput")
    print("-" * 99)
    for name, engine in engines.items():
        result = TraceRunner(engine).run(trace)
        print(
            f"{name:<44} {result.mean_latency_ns / 1e3:>9.3f} us  {result.latency_percentile(95) / 1e3:>9.3f} us "
            f"{result.hit_rate:<9.2f} {result.requests / (result.total_time_ns / 1e9):,.0f} req/s"
        )
    print()

    agile = engines["agile co-processor"]
    print("Agile co-processor: what stayed resident, and how often did we reconfigure?")
    print("  resident at end :", ", ".join(agile.loaded_functions()))
    print(f"  reconfigurations: {agile.stats.misses} "
          f"(hit rate {agile.stats.hit_rate:.2f}, {agile.stats.evictions} evictions)")
    print(f"  mean reconfiguration latency: {agile.stats.mean_reconfig_ns / 1e3:.3f} us")


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
