"""The hit fast path against the full card model.

Every fleet card carries a :class:`~repro.cluster.fastpath.ServeMemo`;
setting ``card.memo = None`` runs the full transaction-level model on every
request and is the reference here.  The differential tests serve one trace
through both and require bit-identical schedules and card state; the gate
tests check that the memo steps aside whenever the card leaves the plain
serving regime, and comes back when the regime does.
"""

import dataclasses

import pytest

from repro.cluster import fastpath
from repro.core.builder import build_fleet
from repro.workloads.multitenant import (
    FleetRequest,
    FleetTrace,
    default_tenant_mix,
    multi_tenant_trace,
)


def card_state(card):
    """Everything the exactness contract promises, for one card.

    The per-card float duration totals (``copro.stats.total_*_ns``,
    ``driver.total_pci_ns``) are outside the contract: replay folds in the
    recorded occurrence's durations, which may differ in the last ulp.
    """
    driver = card.driver
    copro = driver.coprocessor
    mcu = copro.mcu
    bus = driver.bus
    dma = driver.bridge.dma
    stats = copro.stats
    lru = sorted(copro.minios.table, key=lambda entry: (entry.last_access_ns, entry.name))
    return {
        "clock_ns": driver.clock.now,
        "served": card.served,
        "busy_ns": card.busy_ns,
        "driver_calls": driver.calls,
        "bus": (bus.transactions_completed, bus.bytes_transferred, bus.busy_time_ns),
        "dma": (dma.jobs_completed, dma.bytes_moved),
        "commands": driver.card.commands_processed,
        "mcu": (
            mcu.requests_handled,
            mcu.data_in.transfers,
            mcu.data_in.bytes_transferred,
            mcu.data_out.transfers,
            mcu.data_out.bytes_transferred,
        ),
        "minios": dataclasses.astuple(copro.minios.stats),
        "lru": [
            (entry.name, entry.last_access_ns, entry.access_count, entry.load_count)
            for entry in lru
        ],
        "executions": copro.device.total_executions,
        "per_function_executions": {
            name: loaded.executions
            for name, loaded in sorted(copro.device.loaded_functions.items())
        },
        "copro": (
            stats.requests, stats.hits, stats.misses, stats.evictions,
            stats.bytes_in, stats.bytes_out,
            dict(stats.per_function_requests),
        ),
    }


def without_memo(fleet):
    for card in fleet.cards:
        card.memo = None


def assert_same_run(memo_fleet, reference_fleet):
    assert memo_fleet.stats.schedule_digest() == reference_fleet.stats.schedule_digest()
    assert memo_fleet.fingerprint() == reference_fleet.fingerprint()
    for memo_card, reference_card in zip(memo_fleet.cards, reference_fleet.cards):
        assert card_state(memo_card) == card_state(reference_card)


class TestDifferential:
    @pytest.mark.parametrize("policy", ["affinity", "round_robin"])
    def test_resident_hits_replay_bit_identically(self, small_bank, small_fleet, small_trace, policy):
        fleets = [small_fleet(small_bank, policy=policy, cards=2) for _ in range(2)]
        without_memo(fleets[1])
        for fleet in fleets:
            fleet.run(small_trace(small_bank, length=300))
        assert_same_run(*fleets)
        replays = sum(card.memo.replays for card in fleets[0].cards)
        assert replays > 200  # the comparison above was of the replay path

    def test_evictions_between_hits_stay_bit_identical(
        self, default_bank, pressure_config, fleet_working_set
    ):
        # ~63 frames of functions on 32-frame cards: replays interleave with
        # misses that evict memoised functions and later reload them.
        specs = default_tenant_mix(default_bank, tenants=3, skew=0.6, functions=fleet_working_set)
        fleets = [
            build_fleet(
                cards=2,
                config=pressure_config,
                bank=default_bank,
                functions=fleet_working_set,
                policy="round_robin",
            )
            for _ in range(2)
        ]
        without_memo(fleets[1])
        for fleet in fleets:
            trace = multi_tenant_trace(
                default_bank, specs, length=240, mean_interarrival_ns=60_000.0, seed=5
            )
            fleet.run(trace)
        assert_same_run(*fleets)
        memo_fleet = fleets[0]
        assert sum(card.driver.coprocessor.minios.stats.evictions for card in memo_fleet.cards) > 0
        assert sum(card.memo.replays for card in memo_fleet.cards) > 0

    def test_unique_payloads_stop_recording_at_the_cap(self, small_bank, small_fleet, monkeypatch):
        monkeypatch.setattr(fastpath, "MEMO_ENTRY_CAP", 8)
        input_bytes = small_bank.by_name("crc32").spec.input_bytes
        requests = [
            FleetRequest(
                tenant="t0",
                function="crc32",
                payload=index.to_bytes(4, "little") * (input_bytes // 4),
                arrival_ns=index * 50_000.0,
            )
            for index in range(60)
        ]
        fleets = [small_fleet(small_bank, cards=1) for _ in range(2)]
        without_memo(fleets[1])
        for fleet in fleets:
            fleet.run(FleetTrace(requests))
        memo = fleets[0].cards[0].memo
        assert memo.entries == 8
        assert memo.recordings == 8
        assert_same_run(*fleets)


class TestGate:
    """Each regime change forces the full path; ``replays`` stands still."""

    @staticmethod
    def _warm_card(small_bank, small_fleet):
        fleet = small_fleet(small_bank, cards=1)
        card = fleet.cards[0]
        request = FleetRequest(
            tenant="t0",
            function="crc32",
            payload=bytes(small_bank.by_name("crc32").spec.input_bytes),
            arrival_ns=0.0,
        )
        assert card.serve(request)[1] is False  # miss: loads the function
        card.serve(request)  # first resident hit: recorded
        card.serve(request)  # replayed
        assert (card.memo.recordings, card.memo.replays) == (1, 1)
        return fleet, card, request

    def test_eviction_between_two_serves(self, small_bank, small_fleet):
        _, card, request = self._warm_card(small_bank, small_fleet)
        card.driver.evict("crc32")
        _, hit = card.serve(request)
        assert hit is False and card.memo.replays == 1
        card.serve(request)  # resident again: the recorded entry replays
        assert card.memo.replays == 2

    def test_degraded_card(self, small_bank, small_fleet):
        fleet, card, request = self._warm_card(small_bank, small_fleet)
        fleet.degrade_card(0, duration_ns=1_000.0)
        assert card.health == "degraded"
        _, hit = card.serve(request)
        assert hit is True and card.memo.replays == 1
        fleet.simulator.run()  # the port recovers
        assert card.health == "up"
        card.serve(request)
        assert card.memo.replays == 2

    def test_installed_scrubber(self, small_bank, small_fleet):
        _, card, request = self._warm_card(small_bank, small_fleet)
        card.driver.coprocessor.enable_fault_protection()
        for _ in range(2):
            _, hit = card.serve(request)
            assert hit is True
        assert (card.memo.recordings, card.memo.replays) == (1, 1)

    def test_enabled_device_recorder(self, small_bank, small_fleet):
        _, card, request = self._warm_card(small_bank, small_fleet)
        recorder = card.driver.coprocessor.trace
        recorder.enabled = True
        _, hit = card.serve(request)
        assert hit is True and card.memo.replays == 1
        assert len(recorder.events) > 0  # the full path ran and was traced
        recorder.enabled = False
        card.serve(request)
        assert card.memo.replays == 2

    def test_card_reset_keeps_replays_on_the_live_statistics(self, small_bank, small_fleet):
        # RESET replaces the card's statistics objects; replays after it must
        # count on the new ones, like the full path does.
        _, card, request = self._warm_card(small_bank, small_fleet)
        card.driver.reset_card()
        copro = card.driver.coprocessor
        assert card.serve(request)[1] is False  # fabric was cleared
        card.serve(request)
        assert card.memo.replays == 2
        assert (copro.stats.requests, copro.stats.hits) == (2, 1)
        assert (copro.minios.stats.requests, copro.minios.stats.hits) == (2, 1)
