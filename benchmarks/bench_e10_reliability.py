"""E10 — Reliability: fault rate × scrub period × dispatch policy.

The paper's co-processor keeps its entire behaviour in configuration memory;
E9 measured what a fleet of them delivers when everything works.  E10 measures
what survives when it doesn't: seeded fault processes flip bits in live
configuration frames (targeted SEUs), and a scheduled whole-card failure takes
a fleet member down mid-trace.

The defence is the :mod:`repro.faults` stack: per-frame CRC check words,
periodic readback scrubbing from golden images, executor-path hazard
accounting, dispatcher health-awareness and the self-healing recovery policy.
The sweep's axes:

* **fault rate** — per-card configuration upsets per second;
* **scrub period** — ``demand`` (readback-before-use, the period→0 limit),
  a tight periodic service and a loose one;
* **dispatch policy** — ``round_robin`` vs configuration-affinity.

Reported per cell: service availability (completed/arrivals), p95 sojourn,
silent-corruption rate (completions that executed over corrupted frames),
scrub detections/corrections and throughput — the scrub-period
throughput/reliability trade-off in one grid.  A second section kills a card
mid-trace and compares the self-healing recovery policy against no healing.

Everything derives from fixed seeds: the report is byte-identical across
processes, and ``tests/test_e10_reliability.py`` holds :func:`build_report`
equal to the committed report in tier-1.

The timed kernel is one full affinity fleet run at the reference cell.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_fleet
from repro.core.config import CoprocessorConfig
from repro.faults import FaultSpec
from repro.workloads import default_tenant_mix, multi_tenant_trace

#: Same pressure regime as E9: ~63 frames of functions on a 32-frame fabric.
WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
POLICIES = ["round_robin", "affinity"]
#: Per-card configuration upsets per second of simulated time.
UPSET_RATES = [2_000.0, 10_000.0, 50_000.0]
#: 0 = demand scrub (readback-before-use); otherwise the service period (ns).
SCRUB_PERIODS = [0.0, 100_000.0, 800_000.0]
CARDS = 4
TENANTS = 4
TRACE_DURATION_NS = 20e6
MEAN_INTERARRIVAL_NS = 75_000.0
QUEUE_DEPTH = 8
SCRUB_FRAMES_PER_ORDER = 16
SEED = 2010
REFERENCE_RATE = 10_000.0
REFERENCE_PERIOD = 100_000.0
#: The failure drill runs a denser, shorter stream so the card dies with
#: requests queued and in flight (the interesting failover case).
KILL_TIME_NS = 2.5e6
KILL_TRACE_DURATION_NS = 6e6
KILL_MEAN_INTERARRIVAL_NS = 12_000.0

CARD_CONFIG = CoprocessorConfig(
    fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=SEED
)


def scrub_label(period_ns: float) -> str:
    return "demand" if period_ns == 0 else f"{period_ns / 1e3:.0f}us"


def build_trace(
    bank,
    mean_interarrival_ns: float = MEAN_INTERARRIVAL_NS,
    duration_ns: float = TRACE_DURATION_NS,
):
    subset = bank.subset(WORKING_SET)
    tenants = default_tenant_mix(subset, tenants=TENANTS, skew=1.2)
    return multi_tenant_trace(
        subset,
        tenants,
        length=4096,  # safety cap; the horizon bounds the trace
        mean_interarrival_ns=mean_interarrival_ns,
        seed=SEED,
        duration_ns=duration_ns,
    )


def run_cell(
    bank,
    trace,
    policy: str,
    upset_rate: float,
    scrub_period_ns: float,
    kill: bool = False,
    heal: bool = True,
):
    """One fleet run under one fault environment; returns (fleet, stats)."""
    spec = FaultSpec(
        process="targeted",
        upset_rate_per_s=upset_rate,
        card_kill_times_ns=((KILL_TIME_NS, 0),) if kill else (),
        seed=SEED,
    )
    fleet = build_fleet(
        cards=CARDS,
        config=CARD_CONFIG,
        bank=bank,
        functions=WORKING_SET,
        policy=policy,
        queue_depth=QUEUE_DEPTH,
        fault_tolerance=True,
        scrub_period_ns=scrub_period_ns,
        scrub_frames_per_order=SCRUB_FRAMES_PER_ORDER,
        heal_on_failure=heal,
        fault_spec=spec,
    )
    stats = fleet.run(trace)
    return fleet, stats


def build_report(bank) -> ExperimentReport:
    """The whole E10 report: the fault grid, its acceptance checks, the chart,
    the card-kill drill and the metrics."""
    report = ExperimentReport(
        "E10", "Reliability: fault injection, scrubbing and fleet self-healing"
    )
    trace = build_trace(bank)
    grid = Table(
        "Availability / silent corruption per (policy, upset rate, scrub period)",
        [
            "policy",
            "upsets_per_s",
            "scrub",
            "availability",
            "p95_us",
            "silent_rate",
            "hazards",
            "detected",
            "corrected",
            "throughput_rps",
        ],
    )
    cells = {}
    for policy in POLICIES:
        for rate in UPSET_RATES:
            for period in SCRUB_PERIODS:
                fleet, stats = run_cell(bank, trace, policy, rate, period)
                summary = fleet.fault_summary()
                cells[(policy, rate, period)] = (stats, summary)
                grid.add_row(
                    policy,
                    int(rate),
                    scrub_label(period),
                    stats.service_availability,
                    stats.latency_percentile(95) / 1e3,
                    stats.silent_corruption_rate,
                    stats.hazard_completions,
                    summary["scrub_detected"],
                    summary["scrub_corrected"],
                    stats.throughput_requests_per_s,
                )
    report.add_table(grid)

    # Acceptance: the tightest scrub setting admits zero silent corruptions,
    # at every fault rate, under every policy.
    for policy in POLICIES:
        for rate in UPSET_RATES:
            stats, summary = cells[(policy, rate, 0.0)]
            assert stats.hazard_completions == 0, (policy, rate)
            assert summary["scrub_uncorrectable"] == 0

    # And the hazard window opens as scrubbing loosens (reference rate).
    for policy in POLICIES:
        tight = cells[(policy, REFERENCE_RATE, 0.0)][0].hazard_completions
        mid = cells[(policy, REFERENCE_RATE, 100_000.0)][0].hazard_completions
        loose = cells[(policy, REFERENCE_RATE, 800_000.0)][0].hazard_completions
        assert tight == 0
        assert loose >= mid > 0

    # ---- the price of tightness: scrub work vs p95 -------------------------
    affinity_ref = cells[("affinity", REFERENCE_RATE, 0.0)][0]
    affinity_loose = cells[("affinity", REFERENCE_RATE, 800_000.0)][0]
    report.observe(
        f"Demand scrubbing (readback-before-use) eliminates silent corruption at "
        f"every fault rate — {affinity_ref.hazard_completions} hazardous completions "
        f"versus {affinity_loose.hazard_completions} with an 800us scrub period at "
        f"{int(REFERENCE_RATE)} upsets/s/card — but raises affinity p95 sojourn from "
        f"{affinity_loose.latency_percentile(95) / 1e3:.1f} to "
        f"{affinity_ref.latency_percentile(95) / 1e3:.1f} us: scrub time is card time."
    )
    report.add_figure(
        ascii_bar_chart(
            f"Silent corruptions by scrub period (affinity, {int(REFERENCE_RATE)} upsets/s)",
            {
                scrub_label(period): cells[("affinity", REFERENCE_RATE, period)][
                    0
                ].hazard_completions
                for period in SCRUB_PERIODS
            },
        )
    )

    # ---- whole-card failure and self-healing -------------------------------
    kill_trace = build_trace(
        bank,
        mean_interarrival_ns=KILL_MEAN_INTERARRIVAL_NS,
        duration_ns=KILL_TRACE_DURATION_NS,
    )
    heal_table = Table(
        f"Card 0 killed at {KILL_TIME_NS / 1e6:.1f}ms under a "
        f"{KILL_MEAN_INTERARRIVAL_NS / 1e3:.0f}us-interarrival stream (affinity, "
        f"{int(REFERENCE_RATE)} upsets/s, {scrub_label(REFERENCE_PERIOD)} scrub)",
        [
            "healing",
            "availability",
            "completed",
            "rejected",
            "failovers",
            "hit_rate",
            "p95_us",
            "heals",
            "mttr_us",
        ],
    )
    heal_cells = {}
    for heal in (True, False):
        fleet, stats = run_cell(
            bank,
            kill_trace,
            "affinity",
            REFERENCE_RATE,
            REFERENCE_PERIOD,
            kill=True,
            heal=heal,
        )
        heal_cells[heal] = (fleet, stats)
        heal_table.add_row(
            "on" if heal else "off",
            fleet.availability(),
            stats.completed,
            stats.rejected,
            stats.failovers,
            stats.hit_rate,
            stats.latency_percentile(95) / 1e3,
            stats.heals_completed,
            stats.mttr_ns / 1e3,
        )
    report.add_table(heal_table)

    healed_fleet, healed = heal_cells[True]
    unhealed_fleet, unhealed = heal_cells[False]
    # Conservation under failure: the killed card's requests were re-dispatched
    # or rejected, never dropped.
    for stats in (healed, unhealed):
        assert stats.completed + stats.rejected == stats.arrivals == len(kill_trace)
    assert healed.card_failures == unhealed.card_failures == 1
    assert healed.failovers > 0
    assert healed.heals_completed > 0 and unhealed.heals_completed == 0
    # Healing restores residency: the surviving fleet reconfigures less and
    # hits more than the unhealed one.
    assert healed.hit_rate >= unhealed.hit_rate
    report.observe(
        f"Killing a card mid-trace drops capacity availability to "
        f"{healed_fleet.availability():.3f}; every one of its in-flight and queued "
        f"requests fails over ({healed.failovers} failovers, zero drops).  The "
        f"recovery policy re-resident-izes the dead card's hot functions in "
        f"{healed.mttr_ns / 1e3:.0f} us (MTTR), lifting the post-failure hit rate to "
        f"{healed.hit_rate:.3f} versus {unhealed.hit_rate:.3f} without healing."
    )

    report.record_metric(
        "tight_scrub_silent_corruptions",
        sum(
            cells[(policy, rate, 0.0)][0].hazard_completions
            for policy in POLICIES
            for rate in UPSET_RATES
        ),
    )
    report.record_metric(
        "loose_scrub_silent_rate_affinity",
        cells[("affinity", REFERENCE_RATE, 800_000.0)][0].silent_corruption_rate,
    )
    report.record_metric(
        "demand_scrub_p95_us",
        cells[("affinity", REFERENCE_RATE, 0.0)][0].latency_percentile(95) / 1e3,
    )
    report.record_metric(
        "loose_scrub_p95_us",
        cells[("affinity", REFERENCE_RATE, 800_000.0)][0].latency_percentile(95) / 1e3,
    )
    report.record_metric("kill_availability", healed_fleet.availability())
    report.record_metric("kill_failovers", float(healed.failovers))
    report.record_metric("heal_mttr_us", healed.mttr_ns / 1e3)
    report.record_metric("healed_hit_rate", healed.hit_rate)
    report.record_metric("unhealed_hit_rate", unhealed.hit_rate)
    return report


def test_e10_reliability(benchmark, bank):
    save_report(build_report(bank))

    # ---- timed kernel: one affinity fault-fleet run at the reference cell --
    trace = build_trace(bank)

    def run_reference():
        _, stats = run_cell(bank, trace, "affinity", REFERENCE_RATE, REFERENCE_PERIOD)
        return stats

    stats = benchmark.pedantic(run_reference, rounds=3, iterations=1)
    assert stats.completed + stats.rejected == len(trace)
