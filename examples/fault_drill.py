#!/usr/bin/env python3
"""A reliability drill: inject → detect → scrub → kill a card → self-heal.

A guided tour of the fault layer (``repro.faults``), in two acts:

1. **One card under the beam** — enable fault protection on a single
   co-processor, flip bits in its live configuration frames, watch the hazard
   detector flag an execution over corrupted fabric, then run the SCRUB
   command through the real host→PCI→microcontroller path and verify every
   frame is byte-identical to its golden image again.

2. **A fleet losing a card** — run a multi-tenant stream over a fleet with
   periodic readback scrubbing and a seeded fault process, kill a card
   mid-trace, and watch dispatch route around the corpse, queued requests
   fail over, and the recovery policy re-resident-ize the dead card's hot
   functions on the survivors.

Run with:  python examples/fault_drill.py        (~10 s)
           python examples/fault_drill.py --tiny (fast smoke)
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG, CoprocessorConfig
from repro.faults import FaultInjector, FaultSpec
from repro.functions.bank import build_default_bank, build_small_bank
from repro.obs import Observability, names as obs_names
from repro.workloads import default_tenant_mix, multi_tenant_trace

FLEET_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]


def single_card_act(tiny: bool) -> None:
    print("=== Act 1: one card under the beam " + "=" * 42)
    copro = build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=4), bank=build_small_bank())
    copro.enable_fault_protection()
    from repro.core.host import build_host_system

    driver = build_host_system(copro)
    driver.preload("crc32")
    memory = copro.device.memory
    region = list(copro.device.region_of("crc32"))
    print(f"crc32 resident on {len(region)} frames, each with its golden image captured")

    injector = FaultInjector(FaultSpec(process="targeted", seed=4))
    upsets = 4 if tiny else 12
    for _ in range(upsets):
        injector.upset_memory(memory)
    corrupt = [a for a in region if not memory.frame_crc_ok(a)]
    print(f"injected {injector.upsets} targeted upsets: "
          f"{len(corrupt)} of crc32's frames now fail their CRC check word")

    driver.call("crc32", bytes(4))
    detector = copro.device.hazard_detector
    print(f"executed crc32 anyway -> hazard detector counted "
          f"{detector.hazard_executions} execution(s) over corrupted fabric "
          f"(output came from the clean binding; real hardware would have "
          f"computed garbage silently)")

    corrected = driver.scrub_card()
    golden = copro.device.golden
    identical = all(
        memory.read_frame(a) == golden.payload_for(a)
        for a in copro.geometry.all_frames()
    )
    print(f"SCRUB command: {corrected} frames repaired from golden images; "
          f"all frames byte-identical to golden again: {identical}")
    scrubbed = copro.scrubber.stats
    print(f"  scrubber: {scrubbed.passes} passes, {scrubbed.frames_checked} frames checked, "
          f"{scrubbed.detected} detected, {scrubbed.corrected} corrected, "
          f"{scrubbed.uncorrectable} uncorrectable")
    print()


def fleet_act(tiny: bool) -> None:
    print("=== Act 2: a fleet losing a card " + "=" * 44)
    bank = build_default_bank()
    cards = 2 if tiny else 4
    requests = 80 if tiny else 500
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=4
    )
    subset = bank.subset(FLEET_SET)
    trace = multi_tenant_trace(
        subset,
        default_tenant_mix(subset, tenants=4, skew=1.2),
        length=requests,
        mean_interarrival_ns=15_000.0,
        seed=4,
    )
    kill_at = trace.duration_ns * 0.4
    spec = FaultSpec(
        process="targeted",
        upset_rate_per_s=2_000.0,
        card_kill_times_ns=((kill_at, 0),),
        seed=4,
    )
    obs = Observability()
    fleet = build_fleet(
        cards=cards,
        config=config,
        bank=bank,
        functions=FLEET_SET,
        policy="affinity",
        queue_depth=8,
        fault_tolerance=True,
        scrub_period_ns=100_000.0,
        fault_spec=spec,
        observability=obs,
    )
    tenants = Counter(request.tenant for request in trace)
    print(f"{len(trace)} requests from {len(tenants)} tenants over "
          f"{len({request.function for request in trace})} functions, "
          f"{trace.duration_ns / 1e6:.2f} ms of arrivals")
    print(f"card0 scheduled to die at {kill_at / 1e6:.2f} ms; "
          f"scrub period 100 us, targeted upsets at 2000/s/card")
    stats = fleet.run(trace)
    summary = fleet.fault_summary()

    print()
    print(f"arrivals {stats.arrivals}  completed {stats.completed}  "
          f"rejected {stats.rejected}  (conservation: "
          f"{stats.completed + stats.rejected == stats.arrivals})")
    print(f"failovers {stats.failovers}  heal preloads {stats.heals_completed}  "
          f"MTTR {stats.mttr_ns / 1e3:.0f} us")
    print(f"capacity availability {fleet.availability():.3f}  "
          f"scrub detected/corrected {summary['scrub_detected']}/"
          f"{summary['scrub_corrected']}  silent corruptions "
          f"{stats.hazard_completions}")
    print()
    print("what the fleet looks like after the failure:")
    for row in fleet.card_summaries():
        print(f"  {row['card']:<7} health={row['health']:<9} "
              f"served={row['served']:<5} resident=[{row['resident']}]")

    snap = obs.registry.snapshot()
    failovers = sorted(snap[obs_names.METRIC_FAILOVERS_BY_REASON].items())
    reasons = ", ".join(f"{reason}={count}" for reason, count in failovers)
    print()
    print("the same drill, read off the metrics registry:")
    print(f"  {obs_names.METRIC_CARD_FAILURES}={snap[obs_names.METRIC_CARD_FAILURES]}  "
          f"{obs_names.METRIC_HEAL_ORDERS}={snap[obs_names.METRIC_HEAL_ORDERS]}  "
          f"{obs_names.GAUGE_CARDS_DOWN}={snap[obs_names.GAUGE_CARDS_DOWN]}")
    print(f"  failovers by reason: {reasons or '(none)'}")
    print(f"  {len(obs.spans)} spans recorded "
          f"(order.scrub/order.heal among them: "
          f"{sum(1 for s in obs.spans if s.name.startswith('order.'))})")


def main(tiny: bool = False) -> None:
    single_card_act(tiny)
    fleet_act(tiny)


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
