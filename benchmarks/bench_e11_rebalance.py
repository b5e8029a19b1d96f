"""E11 — Live migration & defragmentation: frag level × skew × rebalance policy.

E9 showed configuration-affinity dispatch turning the fleet's combined fabric
into one big configuration cache; E10 showed the fleet surviving faults.  E11
measures the remaining production gap: *residency skew*.  When one card holds
the whole working set (it was warmed first, or it is the survivor of a
failure), affinity pins every request to it while three idle cards watch — and
long-running tenancy fragments configuration memory until large functions no
longer fit contiguously.

The defence is PR 5's rebalance stack: the fleet :class:`~repro.cluster.
rebalance.Rebalancer` watches load/residency skew and issues MIGRATE orders
(readback CAPTURE on the source → compressed PCI transfer → RESTORE through
the destination's mini OS → residency flip → source release), and per-card
:class:`~repro.mcu.minios.defrag.Defragmenter` services compact owned frame
runs into holes.  Both flow through the same bounded card queues as traffic,
so every migration and every compaction pays real card time.

The sweep's axes:

* **skew** — the tenants' Zipf exponent (how concentrated the traffic is);
* **fragmentation level** — receiver cards start clean (0), lightly
  fragmented (1) or heavily fragmented (2, largest free run smaller than the
  biggest working-set function);
* **rebalance policy** — ``off``, ``migrate`` (Rebalancer only) and
  ``migrate+defrag`` (Rebalancer plus periodic compaction orders).

Acceptance (asserted below): at every skew ≥ 1.2 migration recovers at least
half of the p95 gap between the skewed and the balanced fleet, with **zero**
migration-induced byte diffs anywhere in the grid.  A second section drills
defragmentation on one ``CONTIGUOUS_ONLY`` card: fragmentation makes a
13-frame function unplaceable, one DEFRAG pass makes it placeable again.

Everything derives from fixed seeds: the report is byte-identical across
processes (asserted by the determinism regression test).

The timed kernel is one full skewed-fleet run with rebalancing enabled.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import CoprocessorConfig
from repro.core.exceptions import CoprocessorError
from repro.fpga.placer import PlacementStrategy
from repro.workloads import default_tenant_mix, multi_tenant_trace

#: 26 frames total on a 32-frame fabric: the whole working set fits on ONE
#: card, which is exactly what makes the skewed warm state pathological —
#: affinity has no capacity reason to ever leave card 0.
WORKING_SET = ["fir16", "crc32", "strmatch", "parity32", "adder8", "popcount8"]
#: Resident filler used to fragment receiver cards (cold: never in the trace).
FRAG_FILLER = "des"
CARD_FUNCTIONS = WORKING_SET + [FRAG_FILLER]
SKEWS = [1.2, 1.6, 2.0]
FRAG_LEVELS = [0, 1, 2]
POLICIES = ["off", "migrate", "migrate+defrag"]
CARDS = 4
TENANTS = 4
TRACE_LENGTH = 1200
MEAN_INTERARRIVAL_NS = 8_000.0
QUEUE_DEPTH = 16
REBALANCE_PERIOD_NS = 50_000.0
REBALANCE_MIN_QUEUE_SKEW = 8
DEFRAG_PERIOD_NS = 100_000.0
DEFRAG_MOVES_PER_ORDER = 2
SEED = 2011

CARD_CONFIG = CoprocessorConfig(
    fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=SEED
)


def build_trace(bank, skew: float):
    subset = bank.subset(WORKING_SET)
    tenants = default_tenant_mix(subset, tenants=TENANTS, skew=skew)
    return multi_tenant_trace(
        subset,
        tenants,
        length=TRACE_LENGTH,
        mean_interarrival_ns=MEAN_INTERARRIVAL_NS,
        seed=SEED,
    )


def fragment_card(driver, level: int) -> None:
    """Fragment one card's free space through legitimate load/evict traffic.

    Level 1 leaves the 15-frame filler resident behind a 4-frame hole
    (largest free run 13 — the biggest working-set function still *just*
    fits contiguously).  Level 2 additionally punches a resident frame into
    the middle of the remaining run (largest free run 6 — ``fir16``'s 13
    frames can no longer be placed contiguously anywhere).
    """
    if level <= 0:
        return
    driver.preload("crc32")         # frames 0-3
    driver.preload(FRAG_FILLER)     # frames 4-18 (15 frames, cold resident)
    if level >= 2:
        driver.preload("strmatch")  # frames 19-24
        driver.preload("adder8")    # frame 25 (1-frame resident pin)
        driver.evict("strmatch")    # hole 19-24; free tail 26-31 (run of 6)
    driver.evict("crc32")           # hole 0-3 (evicted last so the pins
    #                                 could not first-fit into the low hole)


def warm(fleet, skewed: bool) -> None:
    """Pre-load the working set: all on card 0, or spread round-robin."""
    for index, name in enumerate(WORKING_SET):
        card = fleet.cards[0 if skewed else index % CARDS]
        card.driver.preload(name)


def receiver_fragmentation(fleet) -> float:
    """Mean fragmentation index of the receiver cards (1..N-1)."""
    values = []
    for card in fleet.cards[1:]:
        minios = card.driver.coprocessor.minios
        values.append(minios.placer.fragmentation(minios.free_frames()))
    return sum(values) / len(values) if values else 0.0


def run_cell(bank, trace, policy: str, frag_level: int, skewed: bool = True):
    """One fleet run under one (policy, fragmentation) environment."""
    fleet = build_fleet(
        cards=CARDS,
        config=CARD_CONFIG,
        bank=bank,
        functions=CARD_FUNCTIONS,
        policy="affinity",
        queue_depth=QUEUE_DEPTH,
        rebalance_period_ns=REBALANCE_PERIOD_NS if policy != "off" else None,
        rebalance_min_queue_skew=REBALANCE_MIN_QUEUE_SKEW,
        defrag_period_ns=DEFRAG_PERIOD_NS if policy == "migrate+defrag" else None,
        defrag_moves_per_order=DEFRAG_MOVES_PER_ORDER,
    )
    # Defragmenters are installed unconditionally so the fragmentation index
    # is measurable in every cell (the *service* only runs in migrate+defrag).
    for card in fleet.cards:
        card.driver.coprocessor.enable_defrag()
    for card in fleet.cards[1:]:
        fragment_card(card.driver, frag_level)
    warm(fleet, skewed=skewed)
    stats = fleet.run(trace)
    return fleet, stats


def defrag_drill() -> dict:
    """One CONTIGUOUS_ONLY card: fragmentation blocks a load, defrag unblocks it.

    The paper's placement model allows scattered regions; real devices (and
    the E8 granularity ablation) often demand contiguity — and there,
    fragmentation is a *capacity* failure, not a locality nuisance.
    """
    copro = build_coprocessor(
        config=CARD_CONFIG.with_overrides(
            placement_strategy=PlacementStrategy.CONTIGUOUS_ONLY
        ),
        bank=None,
        functions=CARD_FUNCTIONS,
    )
    copro.enable_defrag()
    from repro.core.host import build_host_system

    driver = build_host_system(copro)
    fragment_card(driver, 2)
    defragmenter = copro.defragmenter
    before = {
        "fragmentation": defragmenter.fragmentation(),
        "largest_run": copro.minios.placer.largest_free_run(copro.minios.free_frames()),
        "free": copro.minios.free_count,
    }
    try:
        driver.preload("fir16")
        blocked = False
    except CoprocessorError:
        # The card answered STATUS_CONFIG_FAILED: free frames exist but no
        # contiguous run long enough — fragmentation as a capacity failure.
        blocked = True
    moved = driver.defrag_card()
    after = {
        "fragmentation": defragmenter.fragmentation(),
        "largest_run": copro.minios.placer.largest_free_run(copro.minios.free_frames()),
    }
    driver.preload("fir16")  # must succeed now
    return {
        "before": before,
        "after": after,
        "blocked": blocked,
        "frames_moved": moved,
        "placed_after_defrag": copro.is_loaded("fir16"),
    }


def test_e11_rebalance(benchmark, bank):
    report = ExperimentReport(
        "E11", "Live migration & config-memory defragmentation under residency skew"
    )
    grid = Table(
        "p95 / hit rate / migrations per (skew, frag level, rebalance policy)",
        [
            "skew",
            "frag",
            "policy",
            "p95_us",
            "hit_rate",
            "completed",
            "rejected",
            "migrations",
            "mig_failed",
            "byte_diffs",
            "recv_frag_end",
            "throughput_rps",
        ],
    )
    cells = {}
    balanced = {}
    for skew in SKEWS:
        trace = build_trace(bank, skew)
        fleet, stats = run_cell(bank, trace, "off", 0, skewed=False)
        balanced[skew] = (fleet, stats)
        for frag_level in FRAG_LEVELS:
            for policy in POLICIES:
                fleet, stats = run_cell(bank, trace, policy, frag_level)
                summary = fleet.rebalance_summary()
                cells[(skew, frag_level, policy)] = (fleet, stats, summary)
                grid.add_row(
                    skew,
                    frag_level,
                    policy,
                    stats.latency_percentile(95) / 1e3,
                    stats.hit_rate,
                    stats.completed,
                    stats.rejected,
                    summary["migrations_completed"],
                    summary["migrations_failed"],
                    summary["migration_byte_diffs"],
                    receiver_fragmentation(fleet),
                    stats.throughput_requests_per_s,
                )
    report.add_table(grid)

    # ---- acceptance: migration recovers the skew-induced p95 gap -----------
    recovered_ratios = {}
    for skew in SKEWS:
        p95_balanced = balanced[skew][1].latency_percentile(95)
        p95_off = cells[(skew, 0, "off")][1].latency_percentile(95)
        p95_migrate = cells[(skew, 0, "migrate")][1].latency_percentile(95)
        gap = p95_off - p95_balanced
        recovered = p95_off - p95_migrate
        assert gap > 0, f"skewed warm must hurt p95 (skew {skew})"
        ratio = recovered / gap
        recovered_ratios[skew] = ratio
        assert ratio >= 0.5, (
            f"rebalancing recovered only {ratio:.2f} of the p95 gap at skew {skew}"
        )
    # ---- acceptance: migration never changes a byte ------------------------
    for (skew, frag_level, policy), (_, _, summary) in cells.items():
        assert summary["migration_byte_diffs"] == 0, (skew, frag_level, policy)
    # Migrations actually happened wherever rebalancing was on.
    for skew in SKEWS:
        for frag_level in FRAG_LEVELS:
            for policy in ("migrate", "migrate+defrag"):
                assert cells[(skew, frag_level, policy)][2]["migrations_completed"] > 0

    report.observe(
        "A fleet whose whole working set was warmed onto one card pins every "
        "request there under affinity dispatch; migration moves the residency "
        "itself.  Recovered p95-gap fractions at frag 0: "
        + ", ".join(f"skew {skew}: {recovered_ratios[skew]:.2f}" for skew in SKEWS)
        + " (acceptance floor 0.5), with zero migration-induced byte diffs in "
        "every cell of the grid."
    )
    report.add_figure(
        ascii_bar_chart(
            "p95 sojourn by policy (skew 1.2, frag 0)",
            {
                "balanced": balanced[1.2][1].latency_percentile(95) / 1e3,
                "skew-off": cells[(1.2, 0, "off")][1].latency_percentile(95) / 1e3,
                "skew-migrate": cells[(1.2, 0, "migrate")][1].latency_percentile(95)
                / 1e3,
            },
        )
    )

    # ---- defragmentation keeps receivers contiguous ------------------------
    for skew in SKEWS:
        frag_migrate = receiver_fragmentation(cells[(skew, 2, "migrate")][0])
        frag_defrag = receiver_fragmentation(cells[(skew, 2, "migrate+defrag")][0])
        assert frag_defrag <= frag_migrate + 1e-9, (skew, frag_migrate, frag_defrag)
    drill = defrag_drill()
    assert drill["blocked"], "heavy fragmentation must block a contiguous-only load"
    assert drill["placed_after_defrag"]
    assert drill["after"]["largest_run"] > drill["before"]["largest_run"]
    drill_table = Table(
        "Defrag drill: one CONTIGUOUS_ONLY card, 13-frame fir16 vs fragmentation",
        ["phase", "fragmentation", "largest_free_run", "fir16_placeable"],
    )
    drill_table.add_row(
        "fragmented", drill["before"]["fragmentation"], drill["before"]["largest_run"], False
    )
    drill_table.add_row(
        "defragged", drill["after"]["fragmentation"], drill["after"]["largest_run"], True
    )
    report.add_table(drill_table)
    report.observe(
        f"On a CONTIGUOUS_ONLY fabric, level-2 fragmentation (largest free run "
        f"{drill['before']['largest_run']} of {drill['before']['free']} free "
        f"frames) makes 13-frame fir16 unplaceable; one DEFRAG pass moves "
        f"{drill['frames_moved']} frames, restores a "
        f"{drill['after']['largest_run']}-frame run and the load succeeds — "
        "compaction pays port-write time to buy back placeability."
    )

    mig_summary = cells[(1.2, 0, "migrate")][2]
    report.record_metric("recovered_ratio_skew_1_2", recovered_ratios[1.2])
    report.record_metric("recovered_ratio_skew_1_6", recovered_ratios[1.6])
    report.record_metric("recovered_ratio_skew_2_0", recovered_ratios[2.0])
    report.record_metric(
        "migration_byte_diffs_total",
        float(sum(summary["migration_byte_diffs"] for _, _, summary in cells.values())),
    )
    report.record_metric(
        "migrations_completed_ref", float(mig_summary["migrations_completed"])
    )
    report.record_metric(
        "mean_migration_latency_us", mig_summary["mean_migration_latency_ns"] / 1e3
    )
    report.record_metric("drill_frames_moved", float(drill["frames_moved"]))
    report.record_metric(
        "drill_largest_run_after", float(drill["after"]["largest_run"])
    )
    save_report(report)

    # ---- timed kernel: one skewed fleet run with rebalancing on ------------
    reference_trace = build_trace(bank, 1.2)

    def run_reference():
        _, stats = run_cell(bank, reference_trace, "migrate", 0)
        return stats

    stats = benchmark.pedantic(run_reference, rounds=3, iterations=1)
    assert stats.completed + stats.rejected == len(reference_trace)
