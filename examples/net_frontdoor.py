#!/usr/bin/env python3
"""The fleet behind a real network: loss, retries, deadlines, brownout.

Every fleet experiment before E12 fed the dispatcher a perfect trace.  This
example puts the same fleet behind the network front door (:mod:`repro.net`):
seeded clients launch requests across lossy links into gateway hosts, which
deduplicate retransmits, shed overload through a priority-aware token bucket
and forward what they admit to the dispatcher.  The transport gives every
request a deadline, retries lost attempts with capped exponential backoff,
and trips a per-gateway circuit breaker when failures streak.

The demo runs the same client load three ways:

* clean network, no retries needed;
* 10% packet loss with retries — client availability holds at 1.0 while the
  link layer quietly eats a tenth of the packets;
* 10% loss *without* retries — every lost packet is a failed client request.

Run with:  python examples/net_frontdoor.py
           python examples/net_frontdoor.py --tiny
"""

from __future__ import annotations

import sys

from repro import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.net import LinkSpec, OpenLoopPopulation, TransportConfig
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

SEED = 12


def run_one(trace, bank, loss: float, retries: int):
    fleet = build_fleet(
        cards=3, config=SMALL_CONFIG.with_overrides(seed=SEED), bank=bank
    )
    frontdoor = build_frontdoor(
        fleet,
        seed=SEED,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=loss, jitter_ns=4_000.0),
        transport=TransportConfig(max_retries=retries),
        deadline_ns=30_000_000.0,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    stats = frontdoor.run()
    return frontdoor, stats


def main(tiny: bool = False) -> None:
    requests = 150 if tiny else 2_000
    bank = build_small_bank()
    tenants = default_tenant_mix(bank, tenants=3)
    trace = multi_tenant_trace(
        bank, tenants, length=requests, mean_interarrival_ns=40_000.0, seed=SEED
    )
    print(f"{requests} requests, 3 tenants, 2 gateways, 3 cards\n")

    scenarios = [
        ("clean network, retries on", 0.0, 3),
        ("10% loss, retries on", 0.10, 3),
        ("10% loss, retries OFF", 0.10, 0),
    ]
    header = (
        f"{'scenario':<28} {'avail':>6} {'retries':>8} {'dup-replay':>10} "
        f"{'p95 net latency':>16}"
    )
    print(header)
    print("-" * len(header))
    for name, loss, retries in scenarios:
        frontdoor, stats = run_one(trace, bank, loss, retries)
        print(
            f"{name:<28} {stats.client_availability:>6.3f} "
            f"{stats.net_retries:>8} {stats.duplicates_served:>10} "
            f"{stats.net_latency_percentile(95) / 1e3:>13.0f} us"
        )
    print()
    links = frontdoor.link_summary()
    print(
        "last run's links: "
        f"{links['offered']} packets offered, {links['lost']} lost, "
        f"{links['dropped']} tail-dropped"
    )
    print(
        "The retrying transport hides loss the no-retry client pays for "
        "directly; the dedup cache turns retransmit races into replays, "
        "never re-executions."
    )


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
