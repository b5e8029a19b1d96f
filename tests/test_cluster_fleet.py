"""The fleet layer: dispatch policies, queueing, statistics, determinism.

The tiny-fleet/trace builders live in ``tests/conftest.py`` (``small_fleet``,
``small_trace``, ``host_driver_factory``) and are shared with the fault and
multi-card PCI suites.
"""

import pytest

from repro.cluster import (
    ConfigAffinityPolicy,
    Fleet,
    FleetStatistics,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    build_dispatch_policy,
)
from repro.core.builder import build_fleet
from repro.core.config import SMALL_CONFIG
from repro.workloads.multitenant import (
    FleetRequest,
    FleetTrace,
    default_tenant_mix,
    multi_tenant_trace,
)


class TestDispatchPolicies:
    def test_registry_builds_all_policies(self):
        assert isinstance(build_dispatch_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(build_dispatch_policy("least_outstanding"), LeastOutstandingPolicy)
        assert isinstance(build_dispatch_policy("affinity"), ConfigAffinityPolicy)
        with pytest.raises(ValueError):
            build_dispatch_policy("nonsense")

    def test_round_robin_rotates(self, small_bank, small_fleet):
        fleet = small_fleet(small_bank, policy="round_robin", cards=3)
        request = FleetRequest(tenant="t", function="crc32", payload=b"", arrival_ns=0.0)
        chosen = [fleet.policy.choose(request, fleet.cards).index for _ in range(6)]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_prefers_idle_card(self, small_bank, small_fleet):
        fleet = small_fleet(small_bank, policy="least_outstanding", cards=3)
        fleet.cards[0].outstanding = 2
        fleet.cards[1].outstanding = 1
        request = FleetRequest(tenant="t", function="crc32", payload=b"", arrival_ns=0.0)
        assert fleet.policy.choose(request, fleet.cards).index == 2

    def test_policies_reject_when_every_queue_is_full(self, small_bank, small_fleet):
        for policy in ("round_robin", "least_outstanding", "affinity"):
            fleet = small_fleet(small_bank, policy=policy, cards=2, queue_depth=1)
            for card in fleet.cards:
                card.outstanding = card.queue_depth
            request = FleetRequest(tenant="t", function="crc32", payload=b"", arrival_ns=0.0)
            assert fleet.policy.choose(request, fleet.cards) is None

    def test_affinity_routes_to_resident_card(self, small_bank, small_fleet):
        fleet = small_fleet(small_bank, policy="affinity", cards=3)
        # Make crc32 resident on card 2 only (through the real driver path).
        fleet.cards[2].driver.preload("crc32")
        assert fleet.cards[2].holds("crc32")
        request = FleetRequest(tenant="t", function="crc32", payload=b"", arrival_ns=0.0)
        assert fleet.policy.choose(request, fleet.cards).index == 2

    def test_affinity_stays_on_a_busier_resident_card(
        self, small_bank, host_driver_factory
    ):
        fleet = Fleet(
            [host_driver_factory(small_bank) for _ in range(2)],
            policy=ConfigAffinityPolicy(),
            queue_depth=8,
        )
        fleet.cards[0].driver.preload("crc32")
        fleet.cards[0].outstanding = 5  # far busier than the cold card, but has room
        request = FleetRequest(tenant="t", function="crc32", payload=b"", arrival_ns=0.0)
        assert fleet.policy.choose(request, fleet.cards).index == 0


class TestFleetRun:
    def test_conservation_and_completion(self, small_bank, small_fleet, small_trace):
        trace = small_trace(small_bank, length=50)
        fleet = small_fleet(small_bank)
        stats = fleet.run(trace)
        assert stats.arrivals == 50
        assert stats.completed + stats.rejected == 50
        assert stats.dispatched == stats.completed
        assert sum(stats.per_card_dispatched.values()) == stats.dispatched
        assert sum(stats.per_tenant_dispatched.values()) == stats.dispatched
        assert stats.completed == sum(card.served for card in fleet.cards)
        assert stats.hits + stats.misses == stats.completed
        for card in fleet.cards:
            assert card.outstanding == 0

    def test_an_input_beyond_the_card_window_is_rejected_not_raised(self, small_bank, small_fleet):
        # The host refuses it before any bus time, as a card refusal: the
        # fleet fails it over once and rejects it, and serves the next one.
        fleet = small_fleet(small_bank, cards=2)
        trace = FleetTrace([
            FleetRequest(tenant="t", function="crc32", payload=bytes(200_000), arrival_ns=0),
            FleetRequest(tenant="t", function="crc32", payload=bytes(64), arrival_ns=10),
        ])
        stats = fleet.run(trace)
        assert (stats.rejected, stats.completed) == (1, 1)
        assert sum(card.busy_ns for card in fleet.cards) == stats.total_service_ns

    def test_a_request_the_card_ram_cannot_hold_is_rejected_not_raised(self, small_bank):
        # Every card's 4 KiB RAM refuses the 5 000-byte input: the fleet fails
        # it over once and rejects it, and serves the next one.  Each card
        # spent the refused attempt's bus and load time.
        config = SMALL_CONFIG.with_overrides(seed=3, ram_capacity_bytes=4096)
        fleet = build_fleet(cards=2, config=config, bank=small_bank)
        trace = FleetTrace([
            FleetRequest(tenant="t", function="crc32", payload=bytes(5_000), arrival_ns=0),
            FleetRequest(tenant="t", function="crc32", payload=bytes(64), arrival_ns=10),
        ])
        stats = fleet.run(trace)
        assert (stats.rejected, stats.completed) == (1, 1)
        assert all(card.busy_ns > 0 for card in fleet.cards)
        assert sum(card.busy_ns for card in fleet.cards) > stats.total_service_ns

    def test_sojourn_includes_queueing(self, small_bank, small_fleet, small_trace):
        trace = small_trace(small_bank, length=50, mean_interarrival_ns=500.0)
        stats = small_fleet(small_bank, cards=1).run(trace)
        # With arrivals far faster than service, waits dominate.
        assert stats.total_wait_ns > 0
        assert stats.total_sojourn_ns >= stats.total_wait_ns
        assert stats.latency_percentile(95) >= stats.latency_percentile(50)

    def test_admission_control_rejects_on_overload(
        self, small_bank, small_fleet, small_trace
    ):
        trace = small_trace(small_bank, length=80, mean_interarrival_ns=200.0)
        stats = small_fleet(small_bank, cards=1, queue_depth=2).run(trace)
        assert stats.rejected > 0
        assert stats.completed + stats.rejected == 80
        assert 0 < stats.rejected < stats.arrivals
        # Tenants stay visible in the per-tenant reports even when most of
        # their traffic was rejected, and the rates add up.
        for tenant in sorted({request.tenant for request in trace}):
            assert tenant in stats.tenants()
            row = stats.per_tenant_summary(tenant)
            # The run drained fully, so every arrival either completed or
            # was rejected at the door.
            assert row["arrivals"] == row["completed"] + row["rejected"]
            assert 0.0 <= row["rejection_rate"] <= 1.0

    def test_run_can_be_resumed_with_more_traffic(
        self, small_bank, small_fleet, small_trace
    ):
        fleet = small_fleet(small_bank)
        first = small_trace(small_bank, length=20, seed=1)
        fleet.run(first)
        assert fleet.stats.completed + fleet.stats.rejected == 20
        resumed_at = fleet.clock.now
        # Arrival times are relative to the start of each run.
        followup = FleetTrace(
            [
                FleetRequest(
                    tenant="late",
                    function="crc32",
                    payload=b"x" * 4,
                    arrival_ns=1000.0,
                )
            ]
        )
        stats = fleet.run(followup)
        assert stats.arrivals == 21
        assert stats.completed == 21 and stats.rejected == 0
        # The late request was served on the resumed timeline, and its
        # sojourn was measured against the re-stamped arrival, not a stale
        # first-run timestamp.
        assert fleet.clock.now >= resumed_at + 1000.0
        assert stats.latency_percentile(100, "late") < resumed_at

    def test_truncated_run_refuses_a_new_trace_until_drained(
        self, small_bank, small_fleet, small_trace
    ):
        fleet = small_fleet(small_bank)
        trace = small_trace(small_bank, length=30, mean_interarrival_ns=10_000.0)
        fleet.run(trace, until_ns=trace.duration_ns // 4)
        # Offering a new trace while the old arrivals are suspended would
        # flood the stale requests in one burst — refuse instead.
        with pytest.raises(RuntimeError):
            fleet.run(small_trace(small_bank, length=5, seed=9))
        fleet.simulator.run()  # drain the truncated trace
        stats = fleet.run(small_trace(small_bank, length=5, seed=9))
        assert stats.arrivals == 35
        assert stats.completed + stats.rejected == 35

    def test_affinity_beats_round_robin_under_pressure(
        self, default_bank, fleet_working_set, pressure_config
    ):
        subset = default_bank.subset(fleet_working_set)
        specs = default_tenant_mix(subset, tenants=4, skew=1.2)
        trace = multi_tenant_trace(
            subset, specs, length=200, mean_interarrival_ns=150_000.0, seed=2005
        )
        results = {}
        for policy in ("round_robin", "affinity"):
            fleet = build_fleet(
                cards=4,
                config=pressure_config,
                bank=default_bank,
                functions=fleet_working_set,
                policy=policy,
            )
            results[policy] = fleet.run(trace)
        assert results["affinity"].hit_rate > results["round_robin"].hit_rate
        assert (
            results["affinity"].latency_percentile(95)
            < results["round_robin"].latency_percentile(95)
        )
        assert results["affinity"].reconfigurations < results["round_robin"].reconfigurations

    def test_fleet_requires_cards(self):
        with pytest.raises(ValueError):
            Fleet([], policy="affinity")
        with pytest.raises(ValueError):
            build_fleet(cards=0)

    def test_policy_instances_cannot_be_shared_across_fleets(
        self, small_bank, host_driver_factory
    ):
        policy = ConfigAffinityPolicy()
        drivers = [host_driver_factory(small_bank)]
        # A failed construction must not poison the policy instance ...
        with pytest.raises(ValueError):
            Fleet(drivers, policy=policy, queue_depth=0)
        Fleet(drivers, policy=policy)
        # ... but a successful one binds it: the rotation pointers / hit
        # counters are per-fleet state, and a second fleet reusing the
        # instance would silently break determinism.
        with pytest.raises(ValueError):
            Fleet(drivers, policy=policy)


class TestFleetStatistics:
    def test_empty_statistics(self):
        stats = FleetStatistics()
        assert stats.hit_rate == 0.0
        assert stats.throughput_requests_per_s == 0.0
        assert stats.latency_percentile(95) == 0.0
        assert stats.latency_percentile(95, "ghost") == 0.0
        assert stats.makespan_ns == 0.0

    def test_summary_keys(self, small_bank, small_fleet, small_trace):
        stats = small_fleet(small_bank).run(small_trace(small_bank, length=30))
        for tenant in stats.tenants():
            row = stats.per_tenant_summary(tenant)
            assert row["completed"] > 0
            assert row["p95_sojourn_us"] >= row["p50_sojourn_us"] or row["completed"] < 3


class TestKernelWorkPerRequest:
    def test_a_request_costs_its_service_and_at_most_a_start(
        self, small_bank, small_fleet, small_trace
    ):
        """``fleet.run``'s deterministic work counter (ROADMAP aim 1), the
        twin of the front door's in ``tests/test_net_frontdoor.py``.

        A card is a server, not a process: nothing dispatches but the one
        arrivals process (its start, then one sleep per distinct arrival
        instant), one ``_finish`` per served request, and one ``_start`` for
        each request that found its card idle — a request that queued is
        started by the ``_finish`` before it, inside that dispatch.
        """
        requests, cards = 400, 2
        fleet = small_fleet(small_bank, cards=cards, queue_depth=64)
        trace = small_trace(small_bank, length=requests, mean_interarrival_ns=4_000.0)
        fleet.stats.digest_tap = served = []
        stats = fleet.run(trace)
        assert stats.completed == requests
        arrival_sleeps = len({request.arrival_ns for request in trace} - {0})
        # A served digest line ends ...|arrival_ns|started_ns|completed_ns.
        idle_starts = sum(
            started_ns == int(line.split(b"|")[5]) for _, started_ns, line in served
        )
        assert 0 < idle_starts < requests  # both kinds of start occur
        assert fleet.simulator.events_dispatched == (
            1 + arrival_sleeps + requests + idle_starts
        )


class TestDeterminism:
    @staticmethod
    def build_and_run(bank, small_fleet, small_trace, policy="affinity"):
        trace = small_trace(bank, length=60, mean_interarrival_ns=5_000.0)
        fleet = small_fleet(bank, policy=policy, cards=2)
        fleet.run(trace)
        return fleet.fingerprint()

    def test_fingerprint_stable_across_runs(self, small_bank, small_fleet, small_trace):
        for policy in ("round_robin", "least_outstanding", "affinity"):
            assert self.build_and_run(
                small_bank, small_fleet, small_trace, policy
            ) == self.build_and_run(small_bank, small_fleet, small_trace, policy), policy

    def test_policies_produce_distinct_schedules(
        self, small_bank, small_fleet, small_trace
    ):
        # Same trace, different routing: the completion digests must differ
        # (if they did not, the policies would not actually be routing).
        digests = {
            policy: self.build_and_run(small_bank, small_fleet, small_trace, policy)[4]
            for policy in ("round_robin", "affinity")
        }
        assert digests["round_robin"] != digests["affinity"]
