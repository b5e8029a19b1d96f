"""E12 — Network front door: loss × overload × retry/shed policy.

E9–E11 measured the fleet with a perfect front door: every request reached
the dispatcher instantly and nobody retried anything.  E12 puts the fleet
behind the network it would actually live behind (:mod:`repro.net`): seeded
open-loop clients, lossy links, gateway hosts with token-bucket admission,
and a transport with propagated deadlines, per-hop timeouts, capped
exponential backoff and per-gateway circuit breakers.

The sweep's axes:

* **loss** — per-packet link loss probability, both directions;
* **overload** — offered load as a multiple of the fleet's measured
  warm capacity (~180k req/s for this 3-card working set);
* **mode** — ``no-retry`` (one shot, what E9's availability numbers
  implicitly assumed), ``retry`` (backoff transport, admit everything) and
  ``retry+shed`` (backoff transport plus priority-aware token-bucket
  admission).

Reported per cell: client availability (completed / issued — what the users
behind the network see), the *admitted-traffic* p95 (gateway admission to
completion — the latency the gateway is answerable for), the client-visible
network p95, retries, sheds, deadline expiries.  The headline is graceful
degradation: under ≥2× overload the ``retry+shed`` gateway browns out —
bulk traffic sheds first, admitted traffic keeps a flat tens-of-µs p95 and
the gold tenant rides the priority reserve at ~1.0 availability — while the
admit-everything modes drag admitted p95 three orders of magnitude up into
the deadline budget, expire requests in deep queues and trip breakers.

A second section re-runs PR 4's card-kill drill *through* the front door:
card 0 dies mid-trace on a lossy network, the healing policy re-homes its
functions, and client-visible availability with retries beats the no-retry
client on the same schedule (and the 0.85 capacity-availability figure the
fleet-level E10 drill reports).

Everything derives from fixed seeds: the report is byte-identical across
processes, and ``tests/test_e12_frontdoor.py`` holds :func:`build_report`
equal to the committed report in tier-1.

The timed kernel is one full retry+shed front-door run at the reference
overload cell.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import CoprocessorConfig
from repro.faults import FaultSpec
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.workloads import default_tenant_mix, multi_tenant_trace

#: Same fabric-pressure regime as E9/E10: ~63 frames on a 32-frame fabric.
WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
CARDS = 3
GATEWAYS = 2
TENANTS = 4
#: Deep card queues: overload must show up as queueing delay (the collapse
#: the deadline/shedding machinery exists to prevent), not instant rejection.
QUEUE_DEPTH = 256
SEED = 2012

#: Measured steady-state 3-card capacity with this (affinity-hot) working
#: set is ~180k req/s, i.e. one request per ~5.5us; that defines 1.0x load.
CAPACITY_INTERARRIVAL_NS = 5_500.0
LOSS_RATES = [0.0, 0.02, 0.10]
OVERLOAD_FACTORS = [0.6, 2.0, 3.0]
MODES = ["no-retry", "retry", "retry+shed"]
#: Long enough that sustained overload builds a real backlog (at 2x the
#: queue grows by one request every other arrival): collapse needs time.
REQUESTS_PER_CELL = 2_400

#: Every request's deadline budget from first send.
DEADLINE_NS = 4_000_000.0
UPLINK = dict(latency_ns=20_000.0, gbps=10.0, jitter_ns=4_000.0)
TRANSPORT = dict(
    per_hop_timeout_ns=1_200_000.0,
    backoff_base_ns=100_000.0,
    backoff_cap_ns=1_000_000.0,
    backoff_jitter=0.5,
    breaker_threshold=12,
    breaker_open_ns=2_000_000.0,
)
#: Admission sized *below* the measured capacity (~80k req/s per gateway,
#: two gateways share the ~180k req/s fleet): brownout means running the
#: cards at a utilisation where queues stay shallow, not at 100%.  A fifth
#: of each bucket is reserved for priority traffic.
ADMISSION = AdmissionConfig(rate_per_s=80_000.0, burst=12.0, reserve_fraction=0.2)

REFERENCE_LOSS = 0.02
REFERENCE_OVERLOAD = 2.0

#: Kill drill: card 0 dies mid-trace on a lossy network, healing enabled.
#: Losing a card leaves the 64-frame working set an *exact* fit on the two
#: 32-frame survivors, so the post-kill fleet thrashes reconfigurations —
#: the degraded-capacity regime E10's drill measures.  The drill client runs
#: at a load the survivors can absorb and with a patience budget matched to
#: degraded service (longer per-hop timeout and deadline than the overload
#: sweep): the point is availability through the failure, not latency.
KILL_TIME_NS = 2.5e6
KILL_REQUESTS = 600
KILL_LOSS = 0.05
KILL_OVERLOAD = 0.4
KILL_DEADLINE_NS = 12_000_000.0
KILL_PER_HOP_TIMEOUT_NS = 4_000_000.0
KILL_BACKOFF_CAP_NS = 2_000_000.0
#: E10's fleet-level capacity-availability figure for the same drill shape.
PR4_KILL_AVAILABILITY = 0.85

CARD_CONFIG = CoprocessorConfig(
    fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=SEED
)


def build_trace(bank, overload: float, requests: int = REQUESTS_PER_CELL):
    subset = bank.subset(WORKING_SET)
    tenants = default_tenant_mix(subset, tenants=TENANTS, skew=1.2)
    return subset, tenants, multi_tenant_trace(
        subset,
        tenants,
        length=requests,
        mean_interarrival_ns=CAPACITY_INTERARRIVAL_NS / overload,
        seed=SEED,
    )


def warm(fleet) -> None:
    """Spread the working set round-robin so every cell starts warm.

    Cold-start reconfigurations cost hundreds of microseconds each; at 2-3x
    overload a cold miss at trace start builds a backlog that never drains
    and would poison every cell's p95 with the same warmup transient.  The
    sweep measures steady-state overload behaviour, so the residency map
    affinity would converge to anyway is installed up front.
    """
    for index, name in enumerate(WORKING_SET):
        fleet.cards[index % CARDS].driver.preload(name)


def run_cell(bank, overload: float, loss: float, mode: str, kill: bool = False):
    """One front-door run; returns (frontdoor, stats)."""
    subset, tenants, trace = build_trace(
        bank,
        overload,
        requests=KILL_REQUESTS if kill else REQUESTS_PER_CELL,
    )
    fleet = build_fleet(
        cards=CARDS,
        config=CARD_CONFIG,
        bank=bank,
        functions=WORKING_SET,
        policy="affinity",
        queue_depth=QUEUE_DEPTH,
        fault_tolerance=kill,
        scrub_period_ns=100_000.0 if kill else None,
        fault_spec=(
            FaultSpec(card_kill_times_ns=((KILL_TIME_NS, 0),), seed=SEED)
            if kill
            else None
        ),
    )
    warm(fleet)
    transport = dict(TRANSPORT)
    if kill:
        transport.update(
            per_hop_timeout_ns=KILL_PER_HOP_TIMEOUT_NS,
            backoff_cap_ns=KILL_BACKOFF_CAP_NS,
        )
    frontdoor = build_frontdoor(
        fleet,
        seed=SEED,
        gateways=GATEWAYS,
        uplink=LinkSpec(loss=loss, **UPLINK),
        transport=TransportConfig(
            max_retries=0 if mode == "no-retry" else 3, **transport
        ),
        admission=ADMISSION if mode == "retry+shed" else None,
        priorities={tenants[0].name: 1},
        deadline_ns=KILL_DEADLINE_NS if kill else DEADLINE_NS,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    stats = frontdoor.run()
    return frontdoor, stats


def build_report(bank) -> ExperimentReport:
    report = ExperimentReport(
        "E12", "Network front door: loss, deadlines, retry/backoff and brownout"
    )
    grid = Table(
        "Client availability / admitted-traffic p95 per (loss, overload, mode)",
        [
            "loss",
            "overload",
            "mode",
            "availability",
            "p95_adm_us",
            "p95_net_us",
            "retries",
            "shed",
            "expired",
            "timeouts",
            "breaker_opens",
        ],
    )
    cells = {}
    for loss in LOSS_RATES:
        for overload in OVERLOAD_FACTORS:
            for mode in MODES:
                frontdoor, stats = run_cell(bank, overload, loss, mode)
                cells[(loss, overload, mode)] = (frontdoor, stats)
                grid.add_row(
                    loss,
                    overload,
                    mode,
                    stats.client_availability,
                    stats.latency_percentile(95) / 1e3,
                    stats.net_latency_percentile(95) / 1e3,
                    stats.net_retries,
                    stats.shed_total,
                    stats.expired,
                    stats.net_timeouts,
                    stats.breaker_opens,
                )
    report.add_table(grid)

    # Conservation in every cell: each issued request has exactly one client-
    # visible fate, and the fleet never served more than the gateways admitted.
    for (loss, overload, mode), (frontdoor, stats) in cells.items():
        key = (loss, overload, mode)
        assert stats.net_completed + stats.net_failed == stats.net_requests, key
        admitted = sum(gateway.admitted for gateway in frontdoor.gateways)
        assert stats.completed + stats.rejected + stats.expired == admitted, key
        # Every client-visible completion is backed by exactly one fleet
        # execution (the reverse need not hold: a response lost on the
        # downlink with no retransmit is fleet work the client never sees).
        assert stats.net_completed <= stats.completed, key

    # Clean network below capacity: every mode delivers everything, nothing
    # sheds, nothing retries — the machinery is invisible when unneeded.
    low = OVERLOAD_FACTORS[0]
    for mode in MODES:
        stats = cells[(0.0, low, mode)][1]
        assert stats.client_availability == 1.0, mode
        assert stats.net_retries == 0 and stats.shed_total == 0, mode

    # Loss without retries is paid in availability, linearly; retries hide it.
    for overload in OVERLOAD_FACTORS[:1]:
        bare = cells[(0.10, overload, "no-retry")][1]
        retry = cells[(0.10, overload, "retry")][1]
        assert bare.client_availability < 0.95
        assert retry.client_availability > bare.client_availability + 0.05

    # ---- the headline: graceful degradation under overload -----------------
    for loss in LOSS_RATES:
        for overload in (2.0, 3.0):
            shed = cells[(loss, overload, "retry+shed")][1]
            noshed = cells[(loss, overload, "retry")][1]
            # Brownout keeps admitted traffic inside a flat envelope (tens of
            # µs sojourn, no deadline expiries) while the admit-everything
            # gateway drags it over an order of magnitude up into the
            # deadline budget.
            assert shed.latency_percentile(95) < 100_000.0, (loss, overload)
            assert (
                shed.latency_percentile(95)
                < 0.1 * noshed.latency_percentile(95)
            ), (loss, overload)
            assert shed.shed_total > 0, (loss, overload)
            assert shed.expired == 0, (loss, overload)
            # Priority-aware shedding: the gold tenant rides the bucket's
            # reserve at near-perfect availability while bulk sheds first.
            gold_avail = shed.per_priority_completed[1] / max(
                1, shed.per_priority_requests[1]
            )
            bulk_avail = shed.per_priority_completed[0] / max(
                1, shed.per_priority_requests[0]
            )
            assert gold_avail > 0.95, (loss, overload)
            assert bulk_avail < gold_avail - 0.3, (loss, overload)
    # At 3x the admit-everything gateway is genuinely collapsing: requests
    # expire in the deep card queues and the failure streaks trip breakers.
    for loss in LOSS_RATES:
        noshed = cells[(loss, 3.0, "retry")][1]
        assert noshed.expired > 0 and noshed.breaker_opens > 0, loss
        assert noshed.client_availability < 0.9, loss

    reference_shed = cells[(REFERENCE_LOSS, REFERENCE_OVERLOAD, "retry+shed")][1]
    reference_noshed = cells[(REFERENCE_LOSS, REFERENCE_OVERLOAD, "retry")][1]
    reference_gold = reference_shed.per_priority_completed[1] / max(
        1, reference_shed.per_priority_requests[1]
    )
    report.observe(
        f"At {REFERENCE_OVERLOAD:.0f}x overload and {REFERENCE_LOSS:.0%} loss the "
        f"admit-everything gateway drags admitted-traffic p95 to "
        f"{reference_noshed.latency_percentile(95) / 1e3:.0f} us "
        f"({reference_noshed.net_timeouts} client timeouts); token-bucket "
        f"admission sheds {reference_shed.shed_total} attempts at the gateway "
        f"and holds admitted p95 at "
        f"{reference_shed.latency_percentile(95) / 1e3:.0f} us with the gold "
        f"tenant at {reference_gold:.3f} availability — brownout, not "
        f"collapse."
    )
    report.add_figure(
        ascii_bar_chart(
            f"Admitted-traffic p95 (us) by mode "
            f"({REFERENCE_OVERLOAD:.0f}x overload, {REFERENCE_LOSS:.0%} loss)",
            {
                mode: cells[(REFERENCE_LOSS, REFERENCE_OVERLOAD, mode)][
                    1
                ].latency_percentile(95)
                / 1e3
                for mode in MODES
            },
        )
    )

    # ---- card-kill drill through the front door ----------------------------
    kill_table = Table(
        f"Card 0 killed at {KILL_TIME_NS / 1e6:.1f}ms, {KILL_LOSS:.0%} loss, "
        f"healing on: what the clients see",
        [
            "mode",
            "client_avail",
            "completed",
            "failed",
            "retries",
            "failovers",
            "heals",
        ],
    )
    kill_cells = {}
    for mode in ("no-retry", "retry"):
        frontdoor, stats = run_cell(bank, KILL_OVERLOAD, KILL_LOSS, mode, kill=True)
        kill_cells[mode] = stats
        kill_table.add_row(
            mode,
            stats.client_availability,
            stats.net_completed,
            stats.net_failed,
            stats.net_retries,
            stats.failovers,
            stats.heals_completed,
        )
    report.add_table(kill_table)

    killed_retry = kill_cells["retry"]
    killed_bare = kill_cells["no-retry"]
    assert killed_retry.card_failures == killed_bare.card_failures == 1
    assert killed_retry.heals_completed > 0
    assert killed_retry.client_availability > killed_bare.client_availability
    # The client-visible figure with retries beats the fleet-level capacity
    # availability PR 4's drill reports (0.85): the transport rides the
    # healing policy instead of surfacing the dead-card window to users.
    assert killed_retry.client_availability > PR4_KILL_AVAILABILITY
    report.observe(
        f"With card 0 dead mid-trace on a {KILL_LOSS:.0%}-loss network, a "
        f"no-retry client sees availability "
        f"{killed_bare.client_availability:.3f}; the retrying transport rides "
        f"the fleet's self-healing ({killed_retry.heals_completed} heals "
        f"re-homing the dead card's residency) to "
        f"{killed_retry.client_availability:.3f} — above the fleet-level "
        f"{PR4_KILL_AVAILABILITY:.2f} capacity-availability figure from the "
        f"E10 drill."
    )

    report.record_metric(
        "overload_p95_noshed_us",
        reference_noshed.latency_percentile(95) / 1e3,
    )
    report.record_metric(
        "overload_p95_shed_us", reference_shed.latency_percentile(95) / 1e3
    )
    report.record_metric("overload_shed_attempts", float(reference_shed.shed_total))
    report.record_metric("overload_gold_availability", reference_gold)
    report.record_metric(
        "loss10_noretry_availability",
        cells[(0.10, low, "no-retry")][1].client_availability,
    )
    report.record_metric(
        "loss10_retry_availability",
        cells[(0.10, low, "retry")][1].client_availability,
    )
    report.record_metric(
        "kill_client_availability_retry", killed_retry.client_availability
    )
    report.record_metric(
        "kill_client_availability_noretry", killed_bare.client_availability
    )
    return report


def test_e12_frontdoor(benchmark, bank):
    save_report(build_report(bank))

    # ---- timed kernel: one retry+shed run at the reference overload cell ---
    def run_reference():
        _, stats = run_cell(bank, REFERENCE_OVERLOAD, REFERENCE_LOSS, "retry+shed")
        return stats

    stats = benchmark.pedantic(run_reference, rounds=3, iterations=1)
    assert stats.net_completed + stats.net_failed == stats.net_requests
