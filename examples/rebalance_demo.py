#!/usr/bin/env python3
"""A live-migration drill: capture → transfer → restore → defrag → rebalance.

A guided tour of the rebalance stack (PR 5), in three acts:

1. **One function moves house** — preload a function on card A, CAPTURE its
   live frames into a compressed, relocatable migration image through the
   real host→PCI path, RESTORE it on card B, and verify the readback is
   byte-identical, CRC check words and golden images included.

2. **A card defragments itself** — fragment a card's configuration memory
   with a load/evict pattern, watch the largest free run collapse, then run
   the DEFRAG command and watch compaction buy the contiguity back (paying
   real configuration-port time for every relocated frame).

3. **A fleet rebalances** — warm a 4-card fleet's entire working set onto
   card 0 (the pathological residency skew affinity dispatch can produce),
   serve a multi-tenant stream, and watch the Rebalancer migrate hot
   functions onto the idle cards: p95 falls, migrations stay byte-identical.

Run with:  python examples/rebalance_demo.py        (~10 s)
           python examples/rebalance_demo.py --tiny (fast smoke)
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG, CoprocessorConfig
from repro.core.host import build_host_system
from repro.functions.bank import build_default_bank, build_small_bank
from repro.obs import Observability, names as obs_names
from repro.workloads import default_tenant_mix, multi_tenant_trace

#: 26 frames on a 32-frame fabric: the whole set fits on one card, which is
#: exactly what lets affinity dispatch pin a fleet's entire load to it.
FLEET_SET = ["fir16", "crc32", "strmatch", "parity32", "adder8", "popcount8"]


def migration_act(tiny: bool) -> None:
    print("=== Act 1: one function moves house " + "=" * 41)

    def make_card():
        copro = build_coprocessor(
            config=SMALL_CONFIG.with_overrides(seed=11), bank=build_small_bank()
        )
        copro.enable_fault_protection()
        return build_host_system(copro)

    source, dest = make_card(), make_card()
    source.preload("crc32")
    before = source.coprocessor.device.readback("crc32")
    blob = source.capture_function("crc32")
    print(f"CAPTURE: crc32's {len(before)} live frames -> "
          f"{len(blob)}-byte compressed migration image")
    dest.restore_function("crc32", blob)
    after = dest.coprocessor.device.readback("crc32")
    memory = dest.coprocessor.device.memory
    golden = dest.coprocessor.device.golden
    region = dest.coprocessor.device.region_of("crc32")
    print(f"RESTORE: resident on destination = {dest.coprocessor.minios.is_resident('crc32')}, "
          f"readback byte-identical = {after == before}")
    print(f"  CRC check words valid: {all(memory.frame_crc_ok(a) for a in region)}; "
          f"golden images captured: {all(memory.read_frame(a) == golden.payload_for(a) for a in region)}")
    output = dest.call("crc32", b"abcd1234").output
    print(f"executed on the restored frames -> output {output.hex()} "
          f"(matches source: {output == source.call('crc32', b'abcd1234').output})")
    source.evict("crc32")
    print(f"release: source resident = {source.coprocessor.minios.is_resident('crc32')}")
    print()


def defrag_act(tiny: bool) -> None:
    print("=== Act 2: a card defragments itself " + "=" * 40)
    driver = build_host_system(
        build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=11), bank=build_small_bank())
    )
    copro = driver.coprocessor
    copro.enable_defrag()
    names = copro.bank.names()
    for name in names:
        driver.preload(name)
    for name in names[::2]:
        driver.evict(name)
    minios = copro.minios
    defragmenter = copro.defragmenter
    print(f"after load/evict churn: {minios.free_count} free frames, "
          f"largest contiguous run {minios.placer.largest_free_run(minios.free_frames())}, "
          f"fragmentation {defragmenter.fragmentation():.3f}")
    moved = driver.defrag_card()
    print(f"DEFRAG: {moved} frames relocated -> largest run "
          f"{minios.placer.largest_free_run(minios.free_frames())}, fragmentation "
          f"{defragmenter.fragmentation():.3f}")
    stats = defragmenter.stats
    print(f"  defragmenter: {stats.passes} passes, {stats.moves} moves, "
          f"{stats.frames_moved} frames moved")
    print()


def fleet_act(tiny: bool) -> None:
    print("=== Act 3: a skewed fleet rebalances " + "=" * 40)
    bank = build_default_bank()
    cards = 4
    # The migration cost needs a few ms of trace to amortize, and the whole
    # fleet run takes well under a second of wall clock — tiny mode keeps the
    # same shape.
    requests = 1200
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=11
    )
    subset = bank.subset(FLEET_SET)
    trace = multi_tenant_trace(
        subset,
        default_tenant_mix(subset, tenants=4, skew=1.2),
        length=requests,
        mean_interarrival_ns=8_000.0,
        seed=11,
    )

    def run(rebalance: bool):
        obs = Observability() if rebalance else None
        fleet = build_fleet(
            cards=cards,
            config=config,
            bank=bank,
            functions=FLEET_SET,
            policy="affinity",
            queue_depth=16,
            rebalance_period_ns=50_000.0 if rebalance else None,
            rebalance_min_queue_skew=8,
            observability=obs,
        )
        for name in FLEET_SET:
            fleet.cards[0].driver.preload(name)  # everything on card 0
        stats = fleet.run(trace)
        return fleet, stats, obs

    skewed_fleet, skewed, _ = run(rebalance=False)
    balanced_fleet, balanced, obs = run(rebalance=True)
    summary = balanced_fleet.rebalance_summary()
    tenants = Counter(request.tenant for request in trace)
    print(f"{len(trace)} requests from {len(tenants)} tenants over {len(FLEET_SET)} functions, "
          f"{trace.duration_ns / 1e6:.2f} ms of arrivals")
    print("whole working set warmed onto card0; affinity pins every request there")
    print()
    print(f"rebalance off : p95 {skewed.latency_percentile(95) / 1e3:8.1f} us,  "
          f"card0 served {skewed_fleet.cards[0].served}/{skewed.completed}")
    print(f"rebalance on  : p95 {balanced.latency_percentile(95) / 1e3:8.1f} us,  "
          f"card0 served {balanced_fleet.cards[0].served}/{balanced.completed}")
    print(f"migrations: {summary['migrations_completed']} completed "
          f"({summary['migrated_frames']} frames, {summary['migrated_bytes']} "
          f"compressed bytes over the PCI), mean order->release latency "
          f"{summary['mean_migration_latency_ns'] / 1e3:.0f} us")
    print(f"migration-induced byte diffs: {summary['migration_byte_diffs']} (must be 0)")
    print()
    print("where the functions ended up:")
    for row in balanced_fleet.card_summaries():
        print(f"  {row['card']:<7} served={row['served']:<5} resident=[{row['resident']}]")

    snap = obs.registry.snapshot()
    migrate_spans = sum(
        1 for s in obs.spans if s.name.startswith("order.migrate")
    )
    print()
    print("the rebalanced run, read off the metrics registry:")
    print(f"  {obs_names.METRIC_MIGRATION_ORDERS}="
          f"{snap[obs_names.METRIC_MIGRATION_ORDERS]}  "
          f"{obs_names.METRIC_MIGRATIONS_COMPLETED}="
          f"{snap[obs_names.METRIC_MIGRATIONS_COMPLETED]}  "
          f"{obs_names.METRIC_MIGRATED_FRAMES}="
          f"{snap[obs_names.METRIC_MIGRATED_FRAMES]}")
    print(f"  {len(obs.spans)} spans recorded, "
          f"{migrate_spans} of them order.migrate.* phases")


def main(tiny: bool = False) -> None:
    migration_act(tiny)
    defrag_act(tiny)
    fleet_act(tiny)


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
