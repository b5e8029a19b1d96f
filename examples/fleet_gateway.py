#!/usr/bin/env python3
"""A multi-tenant acceleration gateway served by a fleet of co-processor cards.

Scales the paper's single-card story up to a service: four tenants (each hot
on different functions — one hashing, one checksumming, one filtering, one
sorting) send an open Poisson stream of requests to a gateway that dispatches
them across a fleet of cards sharing one simulated timeline.

The example runs the same trace through three dispatch policies and shows why
configuration-affinity routing is the one that scales: cards specialise on
the functions their tenants keep hot, so almost no request pays the partial
reconfiguration cost.

Run with:  python examples/fleet_gateway.py        (~10 s)
           python examples/fleet_gateway.py --tiny (fast smoke)
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core.builder import build_fleet
from repro.core.config import CoprocessorConfig
from repro.functions.bank import build_default_bank
from repro.workloads import TenantSpec, multi_tenant_trace

#: Enough functions that one 32-frame card cannot hold them all.
GATEWAY_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]


def build_tenants(bank):
    """Four tenants with distinct hot sets, each sending a quarter of the traffic."""
    names = tuple(GATEWAY_SET)
    return [
        TenantSpec(name="auth-service", mix="zipf", skew=1.4, functions=names, rank_offset=0),
        TenantSpec(name="storage-tier", mix="zipf", skew=1.2, functions=names, rank_offset=1),
        TenantSpec(name="radio-frontend", mix="phased", functions=names),
        TenantSpec(name="batch-analytics", mix="uniform", functions=names),
    ]


def main(tiny: bool = False) -> None:
    bank = build_default_bank()
    requests = 60 if tiny else 600
    cards = 2 if tiny else 4
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=7
    )
    subset = bank.subset(GATEWAY_SET)
    trace = multi_tenant_trace(
        subset,
        build_tenants(subset),
        length=requests,
        mean_interarrival_ns=120_000.0,
        seed=7,
    )
    tenants = Counter(request.tenant for request in trace)
    mix = ", ".join(f"{tenant}:{count}" for tenant, count in sorted(tenants.items()))
    print("Multi-tenant arrival stream:")
    print(f"  {len(trace)} requests from {len(tenants)} tenants, "
          f"{trace.duration_ns / 1e6:.2f} ms of arrivals ({mix})")
    print()

    print(f"{'policy':<20} {'hit rate':<9} {'p50':<10} {'p95':<10} {'p99':<10} "
          f"{'reconfigs':<10} throughput")
    print("-" * 86)
    fleets = {}
    for policy in ("round_robin", "least_outstanding", "affinity"):
        fleet = build_fleet(
            cards=cards, config=config, bank=bank, functions=GATEWAY_SET,
            policy=policy, queue_depth=8,
        )
        stats = fleet.run(trace)
        fleets[policy] = fleet
        print(
            f"{policy:<20} {stats.hit_rate:<9.3f} "
            f"{stats.latency_percentile(50) / 1e3:<10.1f} "
            f"{stats.latency_percentile(95) / 1e3:<10.1f} "
            f"{stats.latency_percentile(99) / 1e3:<10.1f} "
            f"{stats.reconfigurations:<10} "
            f"{stats.throughput_requests_per_s:,.0f} req/s"
        )
    print("  (latencies in us: arrival at the gateway to completion on a card)")
    print()

    affinity = fleets["affinity"]
    print("What the affinity fleet converged to:")
    for row in affinity.card_summaries():
        print(
            f"  {row['card']:<7} served={row['served']:<5} "
            f"hit_rate={row['hit_rate']:.3f} resident=[{row['resident']}]"
        )
    print()

    rr_stats = fleets["round_robin"].stats
    affinity_stats = affinity.stats
    avoided = rr_stats.reconfigurations - affinity_stats.reconfigurations
    print(
        f"Affinity dispatch avoided {avoided} of {rr_stats.reconfigurations} "
        f"reconfigurations and cut p95 latency "
        f"{rr_stats.latency_percentile(95) / affinity_stats.latency_percentile(95):.1f}x "
        f"versus round-robin."
    )
    print()
    print("Per-tenant view under affinity dispatch:")
    for tenant in affinity_stats.tenants():
        row = affinity_stats.per_tenant_summary(tenant)
        print(
            f"  {tenant:<16} completed={int(row['completed']):<5} "
            f"hit_rate={row['hit_rate']:.3f} p95={row['p95_sojourn_us']:.1f}us"
        )


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
