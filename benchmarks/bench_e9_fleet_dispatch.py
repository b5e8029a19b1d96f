"""E9 — Fleet-scale dispatch: configuration-affinity routing vs load balancing.

The paper measures how much on-demand partial reconfiguration costs on one
card.  E9 scales the question up: a fleet of N cards behind a dispatcher
serves an open-arrival multi-tenant stream whose per-tenant Zipf mixes are hot
on *different* functions, and the dispatch policy decides how often any card
has to reconfigure at all.

Three policies are compared across fleet sizes and Zipf skews:

* ``round_robin`` — configuration-oblivious rotation (the baseline),
* ``least_outstanding`` — join the shortest queue (load-aware, still
  configuration-oblivious),
* ``affinity`` — route to a card whose mini OS already holds the function's
  frames (the headline policy).

Reported per cell: fleet-wide hit rate, p50/p95 sojourn, throughput,
rejections and total reconfigurations; plus the per-card specialisation the
affinity policy converges to, and the reconfigurations it avoids versus
round-robin.

Everything derives from fixed seeds: the report is byte-identical across
processes, and ``tests/test_e9_fleet_dispatch.py`` holds :func:`build_report`
equal to the committed report in tier-1.

The timed kernel is one full affinity fleet run at the reference point
(4 cards, skew 1.2).
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_fleet
from repro.core.config import CoprocessorConfig
from repro.workloads import default_tenant_mix, multi_tenant_trace

#: Same working set as E3: ~63 frames of functions on a 32-frame fabric, so
#: one card cannot hold everything but a 2+-card fleet can.
WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
POLICIES = ["round_robin", "least_outstanding", "affinity"]
FLEET_SIZES = [2, 4, 8]
SKEWS = [0.6, 1.2]
REFERENCE_SIZE = 4
REFERENCE_SKEW = 1.2
TRACE_LENGTH = 400
TENANTS = 4
MEAN_INTERARRIVAL_NS = 150_000.0
QUEUE_DEPTH = 8
SEED = 2005

CARD_CONFIG = CoprocessorConfig(
    fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=SEED
)


def _trace(bank, skew):
    subset = bank.subset(WORKING_SET)
    tenants = default_tenant_mix(subset, tenants=TENANTS, skew=skew)
    return multi_tenant_trace(
        subset,
        tenants,
        length=TRACE_LENGTH,
        mean_interarrival_ns=MEAN_INTERARRIVAL_NS,
        seed=SEED,
    )


def _run(bank, policy, trace, cards):
    fleet = build_fleet(
        cards=cards,
        config=CARD_CONFIG,
        bank=bank,
        functions=WORKING_SET,
        policy=policy,
        queue_depth=QUEUE_DEPTH,
    )
    stats = fleet.run(trace)
    return fleet, stats


def build_report(bank) -> ExperimentReport:
    report = ExperimentReport(
        "E9", "Fleet dispatch: configuration affinity vs load balancing"
    )
    table = Table(
        "Fleet-wide metrics per (skew, fleet size, policy)",
        [
            "skew",
            "cards",
            "policy",
            "hit_rate",
            "p50_us",
            "p95_us",
            "throughput_rps",
            "rejected",
            "reconfigs",
        ],
    )
    cells = {}
    traces = {skew: _trace(bank, skew) for skew in SKEWS}
    for skew, trace in traces.items():
        for cards in FLEET_SIZES:
            for policy in POLICIES:
                fleet, stats = _run(bank, policy, trace, cards)
                table.add_row(
                    skew,
                    cards,
                    policy,
                    stats.hit_rate,
                    stats.latency_percentile(50) / 1e3,
                    stats.latency_percentile(95) / 1e3,
                    stats.throughput_requests_per_s,
                    stats.rejected,
                    stats.reconfigurations,
                )
                cells[(skew, cards, policy)] = (fleet, stats)
    report.add_table(table)

    # ---- per-tenant tail latency at the reference point -------------------
    tenant_table = Table(
        f"Per-tenant sojourn percentiles ({REFERENCE_SIZE} cards, skew {REFERENCE_SKEW})",
        ["policy", "tenant", "completed", "hit_rate", "p50_us", "p95_us", "p99_us"],
    )
    for policy in POLICIES:
        _, stats = cells[(REFERENCE_SKEW, REFERENCE_SIZE, policy)]
        for tenant in stats.tenants():
            row = stats.per_tenant_summary(tenant)
            tenant_table.add_row(
                policy,
                tenant,
                int(row["completed"]),
                row["hit_rate"],
                row["p50_sojourn_us"],
                row["p95_sojourn_us"],
                row["p99_sojourn_us"],
            )
    report.add_table(tenant_table)

    # ---- what the affinity fleet converged to -----------------------------
    affinity_fleet, _ = cells[(REFERENCE_SKEW, REFERENCE_SIZE, "affinity")]
    specialisation = Table(
        f"Affinity specialisation ({REFERENCE_SIZE} cards, skew {REFERENCE_SKEW})",
        ["card", "served", "card_hit_rate", "utilisation", "resident_functions"],
    )
    for row in affinity_fleet.card_summaries():
        specialisation.add_row(
            row["card"], row["served"], row["hit_rate"], row["utilisation"], row["resident"]
        )
    report.add_table(specialisation)

    # ---- saturation: arrivals faster than a reconfig-heavy fleet can serve -
    saturation = Table(
        "Saturation behaviour (2 cards, skew 1.2, 5us mean inter-arrival)",
        ["policy", "completed", "rejected", "hit_rate", "p95_us", "throughput_rps"],
    )
    subset = bank.subset(WORKING_SET)
    hot_trace = multi_tenant_trace(
        subset,
        default_tenant_mix(subset, tenants=TENANTS, skew=REFERENCE_SKEW),
        length=TRACE_LENGTH,
        mean_interarrival_ns=5_000.0,
        seed=SEED,
    )
    saturation_stats = {}
    for policy in POLICIES:
        _, stats = _run(bank, policy, hot_trace, cards=2)
        saturation_stats[policy] = stats
        saturation.add_row(
            policy,
            stats.completed,
            stats.rejected,
            stats.hit_rate,
            stats.latency_percentile(95) / 1e3,
            stats.throughput_requests_per_s,
        )
    report.add_table(saturation)

    _, rr = cells[(REFERENCE_SKEW, REFERENCE_SIZE, "round_robin")]
    _, lo = cells[(REFERENCE_SKEW, REFERENCE_SIZE, "least_outstanding")]
    _, affinity = cells[(REFERENCE_SKEW, REFERENCE_SIZE, "affinity")]
    report.add_figure(
        ascii_bar_chart(
            f"Fleet hit rate by policy ({REFERENCE_SIZE} cards, skew {REFERENCE_SKEW})",
            {policy: cells[(REFERENCE_SKEW, REFERENCE_SIZE, policy)][1].hit_rate for policy in POLICIES},
        )
    )

    avoided = rr.reconfigurations - affinity.reconfigurations
    report.observe(
        f"With {REFERENCE_SIZE} cards on the skew-{REFERENCE_SKEW} multi-tenant trace, "
        f"configuration-affinity dispatch reaches a {affinity.hit_rate:.2f} fleet hit "
        f"rate versus {rr.hit_rate:.2f} for round-robin, avoiding {avoided} of "
        f"{rr.reconfigurations} reconfigurations."
    )
    report.observe(
        f"p95 sojourn drops from {rr.latency_percentile(95) / 1e3:.1f} us (round-robin) "
        f"to {affinity.latency_percentile(95) / 1e3:.1f} us (affinity); "
        f"least-outstanding alone only reaches {lo.hit_rate:.2f} hit rate — load "
        f"awareness without configuration awareness buys almost nothing here."
    )
    report.record_metric("affinity_hit_rate", affinity.hit_rate)
    report.record_metric("round_robin_hit_rate", rr.hit_rate)
    report.record_metric("least_outstanding_hit_rate", lo.hit_rate)
    report.record_metric("affinity_p95_us", affinity.latency_percentile(95) / 1e3)
    report.record_metric("round_robin_p95_us", rr.latency_percentile(95) / 1e3)
    report.record_metric("reconfigs_avoided_vs_round_robin", avoided)
    report.record_metric(
        "saturated_affinity_throughput_rps",
        saturation_stats["affinity"].throughput_requests_per_s,
    )
    report.record_metric(
        "saturated_round_robin_rejections",
        saturation_stats["round_robin"].rejected,
    )
    report.observe(
        f"Under a 5 us inter-arrival burst on 2 cards, round-robin rejects "
        f"{saturation_stats['round_robin'].rejected} of {TRACE_LENGTH} requests at "
        f"{saturation_stats['round_robin'].throughput_requests_per_s:.0f} req/s while "
        f"affinity rejects {saturation_stats['affinity'].rejected} and sustains "
        f"{saturation_stats['affinity'].throughput_requests_per_s:.0f} req/s — avoided "
        f"reconfigurations are capacity."
    )

    # The acceptance criterion: affinity must beat round-robin on both
    # fleet-wide hit rate and p95 sojourn for the Zipf-skewed trace.
    assert affinity.hit_rate > rr.hit_rate
    assert affinity.latency_percentile(95) < rr.latency_percentile(95)
    assert affinity.reconfigurations < rr.reconfigurations
    return report


def test_e9_fleet_dispatch(benchmark, bank):
    save_report(build_report(bank))

    # ---- timed kernel: one affinity fleet run at the reference point ------
    reference_trace = _trace(bank, REFERENCE_SKEW)

    def run_affinity_fleet():
        _, stats = _run(bank, "affinity", reference_trace, REFERENCE_SIZE)
        return stats

    stats = benchmark.pedantic(run_affinity_fleet, rounds=3, iterations=1)
    assert stats.completed + stats.rejected == TRACE_LENGTH
