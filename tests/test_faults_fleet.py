"""Fleet self-healing: card health, failover, heal preloads, scrub services.

The load-bearing guarantees: requests on a killed card are never silently
dropped (conservation against the FleetStatistics counters), dead cards are
invisible to dispatch, a card that refuses a load bounces it to survivors, heal
preloads restore residency, and everything — faults included — reproduces
byte-identically.
"""

import pytest

from repro.check.invariants import check_counter_conservation
from repro.cluster import DefragOrder, HealOrder, Order
from repro.core.builder import build_fleet
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec
from repro.sim.kernel import Timeout
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace


class TestCardHealth:
    def test_down_card_is_invisible_to_dispatch(self, small_bank, small_trace, protected_fleet):
        fleet = protected_fleet(small_bank)
        fleet.kill_card(1)
        assert not fleet.cards[1].has_room
        assert not fleet.cards[1].holds("crc32")
        for _ in range(6):
            card = fleet.policy.choose(next(iter(small_trace(small_bank))), fleet.cards)
            assert card.index != 1

    def test_kill_is_idempotent_and_recorded(self, small_bank, protected_fleet):
        fleet = protected_fleet(small_bank)
        assert fleet.kill_card(0)
        assert not fleet.kill_card(0)
        assert fleet.stats.card_failures == 1
        assert fleet.cards[0].health == "down"
        assert fleet.cards[0].down_since_ns is not None

    def test_failover_reaches_every_untried_card(self, small_bank, small_trace, refuse_configuration):
        """The retry exclusion must be cumulative: with two of three ports
        refusing every load, requests end up served by the one working card,
        not rejected after bouncing between the refusing pair."""
        trace = small_trace(small_bank, length=30, mean_interarrival_ns=50_000.0)
        fleet = build_fleet(
            cards=3,
            config=SMALL_CONFIG.with_overrides(seed=3),
            bank=small_bank,
            policy="round_robin",
            queue_depth=8,
            fault_tolerance=True,
        )
        refuse_configuration(*fleet.cards[:2])
        stats = fleet.run(trace)
        assert stats.completed + stats.rejected == stats.arrivals
        # Misses bounced off the refusing cards but always landed on card2.
        assert stats.completed == stats.arrivals
        assert stats.per_card_dispatched["card2"] > 0

class TestKilledCardConservation:
    @pytest.mark.parametrize("kill_ns", [0.0, 200_000.0, 600_000.0])
    def test_no_request_is_silently_dropped(self, small_bank, kill_ns, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=80, mean_interarrival_ns=15_000.0)
        fleet = protected_fleet(
            small_bank,
            fault_spec=FaultSpec(card_kill_times_ns=((kill_ns, 0),), seed=11),
        )
        stats = fleet.run(trace)
        assert fleet.cards[0].health == "down"
        assert stats.completed + stats.rejected == stats.arrivals == len(trace)
        # Every completion ran on a surviving card.
        assert stats.per_card_dispatched.get("card0", 0) >= 0
        summaries = {row["card"]: row for row in fleet.card_summaries()}
        served_alive = sum(
            row["served"] for name, row in summaries.items() if name != "card0"
        )
        assert served_alive + summaries["card0"]["served"] >= stats.completed

    def test_mid_run_kill_fails_over_queued_requests(self, small_bank, small_trace, protected_fleet):
        # Hammer one card hard so its queue is non-empty when it dies.
        trace = small_trace(small_bank, length=120, mean_interarrival_ns=2_000.0)
        fleet = protected_fleet(
            small_bank,
            cards=2,
            fault_spec=FaultSpec(card_kill_times_ns=((100_000.0, 0),), seed=11),
        )
        stats = fleet.run(trace)
        assert stats.completed + stats.rejected == stats.arrivals
        assert stats.failovers > 0
        assert stats.card_failures == 1

    def test_all_ports_wedged_terminates_with_rejections(
        self, small_bank, small_trace, protected_fleet, refuse_configuration
    ):
        """Failover must not livelock between cards that refuse every load.

        With every configuration port refusing, a cold request fails on any
        card it reaches; the retry must exclude the failed card and cap the
        bounce count (queue hand-offs cost zero simulated time, so an
        uncapped retry would spin the kernel forever at one instant).
        """
        trace = small_trace(small_bank, length=20)
        fleet = protected_fleet(small_bank, cards=2)
        refuse_configuration(*fleet.cards)
        stats = fleet.run(trace)
        assert stats.completed + stats.rejected == stats.arrivals
        assert stats.rejected > 0
        assert stats.failovers > 0
        # Bounces are capped at one attempt per card.
        assert stats.failovers <= stats.arrivals * len(fleet.cards)

    def test_all_cards_down_rejects_rather_than_hangs(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=30)
        fleet = protected_fleet(
            small_bank,
            cards=2,
            fault_spec=FaultSpec(
                card_kill_times_ns=((0.0, 0), (0.0, 1)), seed=11
            ),
        )
        stats = fleet.run(trace)
        assert stats.completed + stats.rejected == stats.arrivals
        assert stats.rejected > 0


class TestHealing:
    def test_hot_functions_reresidentised_on_survivors(
        self, default_bank, fleet_working_set, pressure_config
    ):
        trace = multi_tenant_trace(
            default_bank.subset(fleet_working_set),
            default_tenant_mix(default_bank.subset(fleet_working_set), tenants=4, skew=1.2),
            length=200,
            mean_interarrival_ns=100_000.0,
            seed=7,
        )
        fleet = build_fleet(
            cards=3,
            config=pressure_config,
            bank=default_bank,
            functions=fleet_working_set,
            policy="affinity",
            fault_tolerance=True,
            fault_spec=FaultSpec(card_kill_times_ns=((8_000_000.0, 0),), seed=9),
        )
        stats = fleet.run(trace)
        assert stats.card_failures == 1
        assert stats.heal_orders > 0
        assert stats.heals_completed > 0
        assert stats.mttr_ns > 0
        assert stats.completed + stats.rejected == stats.arrivals
        # Healed functions actually live on surviving fabric now.
        survivors = [card for card in fleet.cards if card.health != "down"]
        resident_anywhere = set()
        for card in survivors:
            resident_anywhere.update(card.resident_functions())
        assert resident_anywhere

    def test_refused_heal_still_costs_card_time(
        self, small_bank, protected_fleet, order_drill, refuse_configuration
    ):
        """The port refuses the preload, but the command and its registers
        crossed the bus first: that time is charged like any other failed
        operation's (it used to be dropped)."""
        fleet = protected_fleet(small_bank, cards=2)
        card = fleet.cards[1]
        refuse_configuration(card)
        fleet.stats.record_heal_order("parity32", card.name, 0.0)
        assert order_drill(fleet, (1, HealOrder("parity32", 0.0))) == []
        assert fleet.stats.heals_completed == 0
        assert not card.holds("parity32")
        assert card.outstanding == 0
        assert card.busy_ns == card.driver.clock.now > 0

    def test_a_skipped_heal_is_not_a_counter_violation(self, small_bank, protected_fleet):
        """The last up card dies holding a function: its heal has no target,
        so it is counted as skipped and never ordered — which balances."""
        fleet = protected_fleet(small_bank, cards=1)
        fleet.cards[0].driver.preload("parity32")
        fleet.kill_card(0)
        assert (fleet.stats.heals_skipped, fleet.stats.heal_orders) == (1, 0)
        assert check_counter_conservation(fleet) == []

    def test_availability_reflects_downtime(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=80, mean_interarrival_ns=15_000.0)
        fleet = protected_fleet(
            small_bank,
            fault_spec=FaultSpec(card_kill_times_ns=((100_000.0, 0),), seed=5),
        )
        fleet.run(trace)
        assert 0.0 < fleet.availability() < 1.0
        summary = fleet.fault_summary()
        assert summary["cards_down"] == 1
        assert summary["availability"] == fleet.availability()

    def test_fully_dead_fleet_does_not_report_perfect_availability(self, small_bank, small_trace, protected_fleet):
        """A fleet that completed nothing must report its downtime, not 1.0."""
        trace = small_trace(small_bank, length=30)
        fleet = protected_fleet(
            small_bank,
            cards=2,
            fault_spec=FaultSpec(card_kill_times_ns=((0.0, 0), (0.0, 1)), seed=5),
        )
        stats = fleet.run(trace)
        assert stats.completed == 0 and stats.rejected == stats.arrivals
        assert fleet.availability() < 0.5


class TestScrubService:
    def test_periodic_scrubbing_repairs_and_run_terminates(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=80, mean_interarrival_ns=20_000.0)
        fleet = protected_fleet(
            small_bank,
            scrub_period_ns=50_000.0,
            fault_spec=FaultSpec(
                process="targeted", upset_rate_per_s=2_000.0, seed=13
            ),
        )
        stats = fleet.run(trace)
        summary = fleet.fault_summary()
        assert stats.completed + stats.rejected == stats.arrivals
        assert summary["scrub_passes"] > 0
        assert summary["scrub_detected"] > 0
        assert summary["scrub_detected"] == summary["scrub_corrected"]
        assert summary["scrub_uncorrectable"] == 0

    def test_scrubbing_consumes_card_time(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=40)
        quiet = protected_fleet(small_bank, seed=3)
        scrubbed = protected_fleet(small_bank, seed=3, scrub_period_ns=20_000.0)
        quiet_stats = quiet.run(trace)
        scrub_stats = scrubbed.run(trace)
        assert scrubbed.fault_summary()["scrub_frames_checked"] > 0
        # Same requests completed, but scrub work exists on the busy meter.
        assert scrub_stats.completed == quiet_stats.completed
        assert sum(c.busy_ns for c in scrubbed.cards) > sum(
            c.busy_ns for c in quiet.cards
        )

    def test_tight_scrubbing_eliminates_silent_corruption(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=100, mean_interarrival_ns=40_000.0)
        spec = FaultSpec(process="targeted", upset_rate_per_s=1_000.0, seed=21)

        def run(scrub_period_ns):
            fleet = protected_fleet(
                small_bank,
                scrub_period_ns=scrub_period_ns,
                scrub_frames_per_order=64,
                fault_spec=spec,
            )
            stats = fleet.run(trace)
            return stats.hazard_completions

        loose = run(5_000_000.0)
        tight = run(5_000.0)
        assert tight <= loose

    def test_demand_scrub_guarantees_zero_silent_corruption(self, small_bank, small_trace, protected_fleet):
        """scrub_period_ns=0 (readback-before-use) closes the hazard window."""
        trace = small_trace(small_bank, length=120, mean_interarrival_ns=20_000.0)
        fleet = protected_fleet(
            small_bank,
            scrub_period_ns=0,
            fault_spec=FaultSpec(
                process="targeted", upset_rate_per_s=5_000.0, seed=23
            ),
        )
        stats = fleet.run(trace)
        assert stats.hazard_completions == 0
        assert fleet.fault_summary()["scrub_detected"] > 0
        # Every request paid a region check: scrub work scales with traffic.
        assert fleet.fault_summary()["scrub_frames_checked"] >= stats.completed


class TestFaultDeterminism:
    def test_identical_fault_runs_have_identical_fingerprints(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=60, mean_interarrival_ns=10_000.0)

        def run():
            fleet = protected_fleet(
                small_bank,
                scrub_period_ns=40_000.0,
                fault_spec=FaultSpec(
                    upset_rate_per_s=1_500.0,
                    card_kill_times_ns=((500_000.0, 2),),
                    seed=17,
                ),
            )
            fleet.run(trace)
            return fleet.fingerprint(), fleet.fault_summary()

        first = run()
        second = run()
        assert first == second

    def test_faults_change_the_schedule_digest(self, small_bank, small_trace, protected_fleet):
        trace = small_trace(small_bank, length=60, mean_interarrival_ns=10_000.0)
        clean = protected_fleet(small_bank)
        faulty = protected_fleet(
            small_bank,
            fault_spec=FaultSpec(card_kill_times_ns=((100_000.0, 0),), seed=3),
        )
        clean.run(trace)
        faulty.run(trace)
        assert clean.fingerprint() != faulty.fingerprint()


class TestOrders:
    def test_refused_defrag_costs_time_and_moves_nothing(
        self, small_bank, protected_fleet, order_drill, refuse_configuration
    ):
        fleet = protected_fleet(small_bank, cards=2)
        fleet.enable_defrag()
        card = fleet.cards[0]
        names = small_bank.names()
        for name in names:
            card.driver.preload(name)
        for name in names[::2]:
            card.driver.evict(name)
        defragmenter = card.driver.coprocessor.defragmenter
        fragmentation = defragmenter.fragmentation()
        assert fragmentation > 0
        resident = card.resident_functions()
        refuse_configuration(card)
        card.pending.add(DefragOrder)  # as the periodic service marks it
        assert order_drill(fleet, (0, DefragOrder(1))) == []
        assert defragmenter.stats.moves == 0
        assert defragmenter.fragmentation() == fragmentation
        assert card.resident_functions() == resident
        assert card.busy_ns > 0
        assert card.outstanding == 0 and not card.pending

    def test_a_new_order_is_one_class(self, small_bank, small_fleet, order_drill):
        """The worker runs anything that is an Order: work spends card time,
        the slot is released, then settle does the bookkeeping."""
        seen = []

        class Probe(Order):
            span = "order.probe"

            def work(self, fleet, card):
                yield Timeout(250.0)
                seen.append(("work", fleet.clock.now, card.outstanding))
                return {}

            def settle(self, fleet, card):
                seen.append(("settle", fleet.clock.now, card.outstanding))

        fleet = small_fleet(small_bank)
        assert order_drill(fleet, (1, Probe())) == []
        assert seen == [("work", 250.0, 1), ("settle", 250.0, 0)]
