"""A card is a server: ``Fleet._put`` / ``_start`` / ``_finish``.

Four contracts are pinned here:

* **differential** — against the per-card worker process the server replaced
  (``tests/oracles/eager_bridge.py::worker`` draining a test-side ``Store``),
  every cell of the sweep agrees in schedule digest, final kernel time, every
  statistic, every per-card counter and the invariant pack, and differs in
  ``events_dispatched`` by exactly ``len(cards)`` — the worker spawns;
* **the start is where the wake was** — a ``put`` on an idle card serves
  nothing inside the caller, so a same-instant group is routed against the
  residency the card had before the group's first member ran;
* **the livelock bound** — items that cost no card time are drained inside
  one kernel dispatch, and a self-feeding one is a ``SimulationError`` naming
  the card, not a hang ``run(max_events=)`` cannot see;
* **quiescence is checkable** — the invariant pack reports a card that is
  still busy or still named by a kernel entry.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontdoor_fingerprint import frontdoor_fingerprint
from oracles import eager_bridge
from repro.check.invariants import (
    check_counter_conservation,
    check_invariants,
    check_request_conservation,
)
from repro.cluster import fleet as fleet_module
from repro.cluster.orders import Order
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.sim.kernel import SimulationError
from repro.workloads.multitenant import FleetRequest, default_tenant_mix, multi_tenant_trace

CELLS = (
    "affinity", "round_robin", "least_outstanding", "batched", "fault", "rebalance", "frontdoor",
)
SWEEP_SEEDS = range(40)


def build_cell(bank, cell, seed, oracle, refuse, requests=60, interarrival_ns=3_000.0):
    """One cell, not yet run: ``(run, fleet, door)``.  In the fault cell card 1
    refuses every configuration transfer (*refuse* is the
    ``refuse_configuration`` fixture), so its misses are refused serves."""
    trace = multi_tenant_trace(
        bank,
        default_tenant_mix(bank, tenants=3, skew=1.2),
        length=requests,
        mean_interarrival_ns=interarrival_ns,
        seed=seed,
    )
    options = dict(cards=3, policy="affinity", queue_depth=4)
    if cell in ("round_robin", "least_outstanding"):
        options["policy"] = cell
    elif cell == "batched":
        options.update(admission_batch=32, stats_mode="sketch", queue_depth=32)
    elif cell == "fault":
        options.update(
            fault_tolerance=True,
            scrub_period_ns=50_000,
            fault_spec=FaultSpec(
                process="targeted",
                upset_rate_per_s=3_000.0,
                card_kill_times_ns=((round(trace.duration_ns * 0.45), 0),),
                seed=seed,
            ),
        )
    elif cell == "rebalance":
        options.update(
            cards=2,
            queue_depth=8,
            fault_tolerance=True,
            scrub_period_ns=20_000,
            defrag_period_ns=25_000,
            rebalance_period_ns=30_000,
            rebalance_min_queue_skew=2,
            rebalance_min_frame_skew=2,
        )
    fleet = build_fleet(config=SMALL_CONFIG.with_overrides(seed=seed), bank=bank, **options)
    if cell == "fault":
        refuse(fleet.cards[1])
    if cell == "rebalance":
        for name in bank.names():  # maximal residency skew: migrations get ordered
            fleet.cards[0].driver.preload(name)
    if oracle:
        eager_bridge.install(fleet)
    if cell != "frontdoor":
        return (lambda: fleet.run(trace)), fleet, None
    door = build_frontdoor(
        fleet,
        seed=seed,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=0.03, jitter_ns=4_000.0),
        transport=TransportConfig(),
        admission=AdmissionConfig(rate_per_s=60_000.0, burst=6.0),
        deadline_ns=30_000_000.0,
    )
    door.add_population(OpenLoopPopulation(trace))
    return door.run, fleet, door


def observed(fleet, door):
    """Everything the server form may not change, read after the run."""
    stats = fleet.stats
    return {
        "digest": stats.schedule_digest(),
        "now": fleet.clock.now,
        "totals": {
            name: value for name, value in stats.totals().items() if not name.endswith("_sojourn")
        },
        "percentiles": [
            stats.latency_percentile(percentile, tenant)
            for tenant in [None] + stats.tenants()
            for percentile in (50, 95, 99)
        ],
        "expired": stats.expired,
        "cards": [
            (card.served, card.busy_ns, card.health, card.outstanding)
            for card in fleet.cards
        ],
        "faults": fleet.fault_summary(),
        "rebalance": fleet.rebalance_summary(),
        "net": frontdoor_fingerprint(door) if door is not None else None,
        # Not the memory lockstep: the fault cell's injector upsets frames.
        "violations": check_request_conservation(fleet, stats.arrivals)
        + check_counter_conservation(fleet),
    }


def differs(bank, cell, seed, refuse, **shape):
    """``None`` when server and oracle agree on *cell*, else what differs."""
    runs = []
    for oracle in (False, True):
        run, fleet, door = build_cell(bank, cell, seed, oracle, refuse, **shape)
        run()
        runs.append((observed(fleet, door), fleet.simulator.events_dispatched, len(fleet.cards)))
    (server, server_events, cards), (oracle, oracle_events, _) = runs
    if server["violations"]:
        return server["violations"]
    if server != oracle:
        return sorted(name for name in server if server[name] != oracle[name])
    if oracle_events - server_events != cards:
        return f"events {server_events} vs the oracle's {oracle_events}"
    return None


# ---------------------------------------------------------------- differential
@pytest.mark.parametrize("cell", CELLS)
def test_server_equals_the_worker_process_on_the_sweep(small_bank, cell, refuse_configuration):
    differing = {
        seed: found
        for seed in SWEEP_SEEDS
        if (found := differs(small_bank, cell, seed, refuse_configuration)) is not None
    }
    assert differing == {}


# The fixture's patch holds for every example; each builds its own fleets.
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cell=st.sampled_from(CELLS),
    seed=st.integers(min_value=40, max_value=10_000),
    requests=st.integers(min_value=1, max_value=90),
    interarrival_ns=st.sampled_from([200.0, 1_500.0, 6_000.0, 40_000.0]),
)
def test_server_equals_the_worker_process(
    small_bank, refuse_configuration, cell, seed, requests, interarrival_ns
):
    assert differs(
        small_bank, cell, seed, refuse_configuration, requests=requests, interarrival_ns=interarrival_ns
    ) is None


def test_the_sweep_is_not_vacuous(small_bank, refuse_configuration):
    """The cells reach what they are named for: queueing and rejection, all
    three failover paths (one of them the refused serve that cost card
    time), migrations, and loss-driven retries through the front door."""
    seen = {}
    for cell in ("affinity", "fault", "rebalance", "frontdoor"):
        stats = seen[cell] = []
        for seed in range(8):
            run, fleet, _ = build_cell(small_bank, cell, seed, False, refuse_configuration)
            run()
            stats.append(fleet.stats)
    assert all(stats.total_wait_ns > 0 for stats in seen["affinity"])
    assert sum(stats.rejected for stats in seen["affinity"]) > 0
    reasons = set().union(*(stats.failover_reasons for stats in seen["fault"]))
    assert reasons == {"dead-queue", "serve-failed", "died-in-service"}
    assert sum(stats.migrations_completed for stats in seen["rebalance"]) > 0
    assert all(stats.net_retries > 0 for stats in seen["frontdoor"])


# ------------------------------------------------ the start is where the wake was
def test_put_on_an_idle_card_serves_nothing_in_the_caller(small_bank, small_fleet):
    fleet = small_fleet(small_bank, cards=1)
    request = FleetRequest(tenant="t", function="crc32", payload=b"abc", arrival_ns=0)
    fleet.submit(request)
    (card,) = fleet.cards
    assert card.busy and card.served == 0 and len(card.queue) == 0
    simulator = fleet.simulator
    entries = [*simulator._heap, *simulator._fifo]
    assert [entry[3] for entry in entries] == [card]
    assert entries[0][0] == 0 and entries[0][4] is request
    # A second put at the same instant waits behind it: still one entry.
    fleet.submit(request)
    assert len(fleet.simulator) == 1 and list(card.queue) == [request]
    fleet.simulator.run()
    assert card.served == 2 and not card.busy
    assert check_invariants(fleet, trace_length=2) == []


def test_a_cold_start_group_is_routed_against_pre_serve_residency(small_bank):
    """``admission_batch=32`` releases 32 requests inside one dispatch.  None
    of them may see a card that has already served the group's first member:
    on a cold fleet affinity then *spreads* the group instead of sending
    request 2 after request 1."""
    dispatched = []
    for oracle in (False, True):
        run, fleet, _ = build_cell(small_bank, "batched", 11, oracle, None, requests=32)
        served_at_choice = []
        choose = fleet.policy.choose

        def recording_choose(request, cards):
            served_at_choice.append(sum(card.served for card in fleet.cards))
            return choose(request, cards)

        fleet.policy.choose = recording_choose
        run()  # inside this iteration: the closure reads this fleet's cells
        assert served_at_choice == [0] * 32
        dispatched.append(dict(fleet.stats.per_card_dispatched))
    assert dispatched[0] == dispatched[1]
    assert len(dispatched[0]) == 3  # spread over every card, not piled on one


# ------------------------------------------------------------ the livelock bound
class NoTimeOrder(Order):
    """Test-only order whose work costs no card time; ``again`` re-enqueues
    it on its own card from ``settle``."""

    span = "order.test"

    def __init__(self, again=False):
        self.again = again
        self.settled = 0

    def work(self, fleet, card):
        return {}
        yield  # a generator that yields nothing

    def settle(self, fleet, card):
        self.settled += 1
        if self.again:
            fleet._enqueue(card, self)


def test_a_self_feeding_item_is_bounded(small_bank, small_fleet, monkeypatch):
    monkeypatch.setattr(fleet_module, "ZERO_TIME_ITEM_LIMIT", 100)
    fleet = small_fleet(small_bank, cards=2)
    order = NoTimeOrder(again=True)
    fleet._enqueue(fleet.cards[1], order)
    with pytest.raises(SimulationError, match="card1 .* livelock"):
        fleet.simulator.run(max_events=1_000)
    assert order.settled == 100
    assert fleet.simulator.events_dispatched == 0  # raised inside the first dispatch


def test_a_zero_time_drain_is_one_dispatch(small_bank, small_fleet):
    fleet = small_fleet(small_bank, cards=2)
    orders = [NoTimeOrder() for _ in range(500)]
    for order in orders:
        fleet._enqueue(fleet.cards[0], order)
    assert len(fleet.simulator) == 1 and len(fleet.cards[0].queue) == 499
    fleet.simulator.run(max_events=2)
    assert fleet.simulator.events_dispatched == 1
    assert all(order.settled == 1 for order in orders)
    assert check_invariants(fleet, trace_length=0) == []


# ------------------------------------------------------- quiescence is checkable
def test_invariants_report_a_card_still_in_service(small_bank, small_fleet, small_trace):
    fleet = small_fleet(small_bank, cards=2)
    trace = small_trace(small_bank, length=20, mean_interarrival_ns=2_000.0)
    fleet.run(trace, until_ns=list(trace)[10].arrival_ns)
    busy = [card for card in fleet.cards if card.busy]
    assert busy
    violations = check_request_conservation(fleet, trace_length=20)
    for card in busy:
        assert f"{card.name}: not idle (busy=True, 1 kernel entries name it)" in violations
    fleet.simulator.run()
    assert check_invariants(fleet, trace_length=20) == []
