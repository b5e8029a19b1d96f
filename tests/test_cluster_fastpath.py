"""The hit fast path against the full card model.

Every fleet card carries a :class:`~repro.cluster.fastpath.ServeMemo`;
setting ``card.memo = None`` runs the full transaction-level model on every
request and is the reference here.  The differential tests serve one trace
through both and require bit-identical schedules and card state; the traced
differential tests add the spans and the bridged device recorder (a bridging
fleet does not select the full model: a replay hands its events over
unbuilt); the gate tests check that the memo steps aside whenever the card leaves the plain
serving regime, and comes back when the regime does.  ``TestReplayKey`` is
why one entry serves every payload of a function and input length.
"""

import collections
import dataclasses
import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG, CoprocessorConfig
from repro.fpga.errors import ExecutionError
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability, trace_fingerprint
from repro.obs.context import DeviceSpans
from repro.workloads.multitenant import (
    FleetRequest,
    FleetTrace,
    default_tenant_mix,
    multi_tenant_trace,
)


def card_state(card):
    """Everything the exactness contract promises, for one card: counters,
    LRU state, every time total and the latency percentiles."""
    driver = card.driver
    copro = driver.coprocessor
    bus = driver.bus
    stats = copro.stats
    lru = sorted(copro.minios.table, key=lambda entry: (entry.last_access_ns, entry.name))
    return {
        "clock_ns": driver.clock.now,
        "served": card.served,
        "busy_ns": card.busy_ns,
        "bus": (bus.transactions_completed, bus.bytes_transferred, bus.busy_time_ns),
        "requests_handled": copro.mcu.requests_handled,
        "minios": dataclasses.astuple(copro.minios.stats),
        "lru": [(entry.name, entry.last_access_ns, entry.access_count) for entry in lru],
        "executions": copro.device.total_executions,
        "per_function_executions": {
            name: loaded.executions
            for name, loaded in sorted(copro.device.loaded_functions.items())
        },
        "copro": (
            stats.requests, stats.hits, stats.misses, stats.evictions,
            dict(stats.per_function_requests),
        ),
        "copro_time_totals": {
            field.name: getattr(stats, field.name)
            for field in dataclasses.fields(stats)
            if field.name.startswith("total_") and field.name.endswith("_ns")
        },
    }


def zero_request(bank, function="crc32"):
    return FleetRequest(
        tenant="t0",
        function=function,
        payload=bytes(bank.by_name(function).spec.input_bytes),
        arrival_ns=0,
    )


def replays(fleet):
    return sum(card.memo.replays for card in fleet.cards)


def without_memo(fleet):
    for card in fleet.cards:
        card.memo = None


def assert_same_run(memo_fleet, reference_fleet):
    assert memo_fleet.stats.schedule_digest() == reference_fleet.stats.schedule_digest()
    assert memo_fleet.fingerprint() == reference_fleet.fingerprint()
    for memo_card, reference_card in zip(memo_fleet.cards, reference_fleet.cards):
        assert card_state(memo_card) == card_state(reference_card)


def unique_payloads(trace):
    """*trace* with each request's payload replaced by one no other request
    of its function carries, of the same length: the k-th request of a
    function carries k, little-endian."""
    seen = collections.Counter()
    requests = []
    for request in trace:
        index = seen[request.function]
        seen[request.function] += 1
        payload = index.to_bytes(len(request.payload), "little")
        requests.append(dataclasses.replace(request, payload=payload))
    return FleetTrace(requests)


class TestReplayKey:
    """What licenses one replay for every payload of a length.

    A resident hit's time is a sum over the input length, the output length
    and the fabric cycles (``tests/oracles/miss_formula.py``'s ``call_ns``),
    and a fleet serve hands back only ``(service_ns, hit)``.  So a recorded
    hit replays exactly for any payload of its function and length as long
    as ``(len(output), cycles)`` reads the input's length and never its
    bytes.  A function whose timing starts reading its data fails here.
    """

    GEOMETRIES = (CoprocessorConfig().geometry(), SMALL_CONFIG.geometry())

    @given(
        blocks=st.integers(min_value=1, max_value=4),
        seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    )
    def test_output_length_and_cycles_read_only_the_input_length(
        self, default_bank, small_bank, blocks, seeds
    ):
        # Payloads are drawn as seeds: a whole payload per function would
        # make hypothesis's smallest example kilobytes long.
        for bank in (default_bank, small_bank):
            for name in bank.names():
                function = bank.by_name(name)
                length = function.spec.input_bytes * blocks
                payloads = [
                    random.Random(seed).getrandbits(8 * length).to_bytes(length, "little")
                    for seed in seeds
                ]
                for geometry in self.GEOMETRIES:
                    executor = function.executor(geometry)
                    outcomes = [self._outcome(executor, payload) for payload in payloads]
                    assert outcomes[0] == outcomes[1], (name, geometry, length)

    @staticmethod
    def _outcome(executor, payload):
        """``(len(output), cycles)``, or the error a netlist's fixed input
        width raises for any payload of a wrong length."""
        try:
            output, cycles = executor.run(payload)
        except ExecutionError:
            return ExecutionError
        return len(output), cycles


class TestDifferential:
    @pytest.mark.parametrize("policy", ["affinity", "round_robin"])
    def test_resident_hits_replay_bit_identically(self, small_bank, small_fleet, small_trace, policy):
        fleets = [small_fleet(small_bank, policy=policy, cards=2) for _ in range(2)]
        without_memo(fleets[1])
        for fleet in fleets:
            fleet.run(small_trace(small_bank, length=300))
        assert_same_run(*fleets)
        assert replays(fleets[0]) > 200  # the comparison above was of the replay path

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
        assert replays(memo_fleet) > 0

    def test_unique_same_length_payloads_hold_one_entry(self, small_bank, small_fleet):
        input_bytes = small_bank.by_name("crc32").spec.input_bytes
        requests = [
            FleetRequest(
                tenant="t0",
                function="crc32",
                payload=index.to_bytes(4, "little") * (input_bytes // 4),
                arrival_ns=index * 50_000,
            )
            for index in range(60)
        ]
        fleets = [small_fleet(small_bank, cards=1) for _ in range(2)]
        without_memo(fleets[1])
        for fleet in fleets:
            fleet.run(FleetTrace(requests))
        memo = fleets[0].cards[0].memo
        # A miss loads crc32, the first hit records it, every later hit replays.
        assert (len(memo._entries), memo.replays) == (1, 58)
        assert_same_run(*fleets)

    def test_payloads_that_never_repeat_stay_bit_identical(self, small_bank, small_fleet, small_trace):
        trace = unique_payloads(small_trace(small_bank, length=300))
        assert len({(request.function, request.payload) for request in trace}) == len(trace)
        fleets = [small_fleet(small_bank, cards=2) for _ in range(2)]
        without_memo(fleets[1])
        for fleet in fleets:
            fleet.run(trace)
        assert_same_run(*fleets)
        # Unfaulted and unpressured: every hit is clean, and each card records
        # one serve per (function, input length) it hit, then replays the
        # rest.  Each function's payloads have one length here, and a card
        # that evicts nothing hits a function on every request but its first.
        memo_fleet, reference_fleet = fleets
        assert sum(card.driver.coprocessor.stats.evictions for card in reference_fleet.cards) == 0
        for memo_card, reference_card in zip(memo_fleet.cards, reference_fleet.cards):
            stats = reference_card.driver.coprocessor.stats
            recorded = sum(1 for count in stats.per_function_requests.values() if count > 1)
            assert len(memo_card.memo._entries) == recorded
            assert memo_card.memo.replays == stats.hits - recorded

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_fault_protected_cards_replay_bit_identically(
        self, small_bank, control_plane_fleet, seed
    ):
        # Upsets, scrub orders, a card kill, rebalancing and defrag.  Cards
        # replay while the function's region holds no suspect frame and run
        # the full model (hazard counted) while it does.
        fleets = [control_plane_fleet(small_bank, seed) for _ in range(2)]
        without_memo(fleets[1][0])
        for fleet, trace in fleets:
            fleet.run(trace)
        (memo_fleet, _), (reference_fleet, _) = fleets
        assert_same_run(memo_fleet, reference_fleet)
        assert memo_fleet.fault_summary() == reference_fleet.fault_summary()
        for memo_card, reference_card in zip(memo_fleet.cards, reference_fleet.cards):
            assert memo_card.hazard_detector.hazard_executions == (
                reference_card.hazard_detector.hazard_executions
            )
            assert memo_card.scrub_stats == reference_card.scrub_stats
        summary = memo_fleet.fault_summary()
        assert summary["scrub_corrected"] > 0 and summary["card_failures"] == 1
        assert replays(memo_fleet) > 0


def recorder_state(card):
    recorder = card.driver.coprocessor.trace
    return [dataclasses.astuple(event) for event in recorder.events], recorder.dropped


def traced_state(fleet, observability):
    """What a traced run leaves behind: spans, schedule, outcomes, card time."""
    stats = fleet.stats
    return {
        "trace_fingerprint": trace_fingerprint(observability.spans),
        "spans": len(observability.spans),
        "spans_dropped": observability.tracer.dropped,
        "schedule_digest": stats.schedule_digest(),
        "outcomes": (
            stats.arrivals, stats.completed, stats.rejected, stats.expired,
            stats.failovers, stats.hit_rate,
        ),
        "cards": [
            (
                card.driver.clock.now,
                card.driver.bus.busy_time_ns,
                card.busy_ns,
                card.served,
                card.driver.coprocessor.mcu.requests_handled,
                recorder_state(card),
            )
            for card in fleet.cards
        ],
    }


class TestTracedDifferential:
    """``Observability()`` on: replayed hits leave the full model's spans."""

    @staticmethod
    def _run(bank, seed, memo, frontdoor):
        """A plain traced fleet, or the e2e front-door stack on top of one."""
        observability = Observability()
        opt_ins = {"stats_mode": "sketch", "admission_batch": True} if frontdoor else {}
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=seed),
            bank=bank,
            queue_depth=8,
            observability=observability,
            **opt_ins,
        )
        if not memo:
            without_memo(fleet)
        specs = default_tenant_mix(bank, tenants=3, skew=1.2)
        trace = multi_tenant_trace(
            bank, specs, length=300, mean_interarrival_ns=60_000.0, seed=seed
        )
        if frontdoor:
            door = build_frontdoor(
                fleet,
                seed=seed,
                gateways=2,
                uplink=LinkSpec(latency_ns=20_000.0, loss=0.02, jitter_ns=4_000.0),
                transport=TransportConfig(),
                admission=AdmissionConfig(rate_per_s=14_000.0, burst=8.0),
                priorities={specs[0].name: 1},
                deadline_ns=30_000_000.0,
            )
            door.add_population(OpenLoopPopulation(trace))
            door.run()
        else:
            fleet.run(trace)
        return fleet, observability

    @pytest.mark.parametrize("seed", [5, 11, 29])
    @pytest.mark.parametrize("frontdoor", [False, True], ids=["fleet", "frontdoor"])
    def test_traced_run_is_span_identical(self, small_bank, frontdoor, seed):
        memo_run = self._run(small_bank, seed, memo=True, frontdoor=frontdoor)
        reference_run = self._run(small_bank, seed, memo=False, frontdoor=frontdoor)
        assert traced_state(*memo_run) == traced_state(*reference_run)
        memo_fleet, memo_obs = memo_run
        assert memo_obs.spans  # tracing was on ...
        assert replays(memo_fleet) > 200  # ... and the hits were replayed

    def test_traced_evictions_between_hits(self, default_bank, pressure_config, fleet_working_set):
        # Replays interleave with misses that evict memoised functions and
        # later reload them; the bridged card.* spans must not tell.
        specs = default_tenant_mix(default_bank, tenants=3, skew=0.6, functions=fleet_working_set)
        runs = []
        for memo in (True, False):
            observability = Observability()
            fleet = build_fleet(
                cards=2,
                config=pressure_config,
                bank=default_bank,
                functions=fleet_working_set,
                policy="round_robin",
                observability=observability,
            )
            if not memo:
                without_memo(fleet)
            fleet.run(
                multi_tenant_trace(
                    default_bank, specs, length=240, mean_interarrival_ns=60_000.0, seed=5
                )
            )
            runs.append((fleet, observability))
        assert traced_state(*runs[0]) == traced_state(*runs[1])
        memo_fleet = runs[0][0]
        assert sum(card.driver.coprocessor.minios.stats.evictions for card in memo_fleet.cards) > 0
        assert replays(memo_fleet) > 0

    @staticmethod
    def _bridged_cards(small_bank, small_fleet, capacity=None):
        """A memo card and a full-model card, their device recorders bridged
        the way a tracing fleet bridges them."""
        cards = [small_fleet(small_bank, cards=1).cards[0] for _ in range(2)]
        cards[1].memo = None
        for card in cards:
            recorder = card.driver.coprocessor.trace
            recorder.events.clear()
            recorder.dropped = 0
            recorder.capacity = capacity
            recorder.enabled = True
            card._obs_trace = recorder
        return cards

    @staticmethod
    def _serve(card, request):
        """One serve, with the ``card.*`` spans its device events stand for."""
        result = card.serve(request)
        spans = DeviceSpans(1, 1, 1, 0, *card.device_events)
        return result, [
            (span.name, span.start_ns, span.end_ns, sorted(span.attrs.items()))
            for span in spans
        ]

    def test_evict_reload_replay_and_card_reset(self, small_bank, small_fleet):
        memo_card, reference_card = cards = self._bridged_cards(small_bank, small_fleet)
        crc32 = zero_request(small_bank)
        parity = zero_request(small_bank, "parity32")
        served = []
        for card in cards:
            serve = functools.partial(self._serve, card)
            log = [serve(request) for request in (crc32, crc32, crc32, parity, parity, crc32)]
            card.driver.evict("crc32")
            log += [serve(crc32), serve(crc32), serve(parity)]
            # RESET clears the fabric but not the MCU's request ordinal the
            # RAM staging labels are numbered by.
            card.driver.reset_card()
            log += [serve(crc32), serve(crc32), serve(crc32)]
            served.append(log)
        assert served[0] == served[1]
        # Every serve drained the recorder; no replay ever wrote to it.
        assert recorder_state(memo_card) == recorder_state(reference_card) == ([], 0)
        assert card_state(memo_card) == card_state(reference_card)
        _, last = served[0][-1]
        labels = [dict(attrs)["label"] for *_, attrs in last if "label" in dict(attrs)]
        assert len(last) == 15 and labels == ["in:11", "in:11", "out:11", "out:11"]
        # Recorded: crc32, parity32.  Replayed: two crc32 before the
        # eviction, one crc32 and one parity32 after the reload, two crc32
        # after the reset.
        assert (len(memo_card.memo._entries), memo_card.memo.replays) == (2, 6)

    def test_recorder_capacity_drops_like_the_full_path(self, small_bank, small_fleet):
        # 10 slots: the capacity runs out in the middle of every serve, the
        # replayed ones too (their drops are charged without an event built).
        memo_card, reference_card = cards = self._bridged_cards(small_bank, small_fleet, capacity=10)
        request = zero_request(small_bank)
        served = [[self._serve(card, request) for _ in range(6)] for card in cards]
        assert served[0] == served[1]
        assert all(len(spans) == 10 for _, spans in served[0])
        _, dropped = recorder_state(memo_card)
        assert recorder_state(memo_card) == recorder_state(reference_card) == ([], dropped)
        assert dropped > 6 * 5
        assert memo_card.memo.replays == 4
        assert memo_card.driver.clock.now == reference_card.driver.clock.now


class TestGate:
    """Each regime change forces the full path; ``replays`` stands still."""

    @staticmethod
    def _warm_card(small_bank, small_fleet):
        fleet = small_fleet(small_bank, cards=1)
        card = fleet.cards[0]
        request = zero_request(small_bank)
        assert card.serve(request)[1] is False  # miss: loads the function
        card.serve(request)  # first resident hit: recorded
        card.serve(request)  # replayed
        assert (len(card.memo._entries), card.memo.replays) == (1, 1)
        return fleet, card, request

    def test_eviction_between_two_serves(self, small_bank, small_fleet):
        _, card, request = self._warm_card(small_bank, small_fleet)
        card.driver.evict("crc32")
        _, hit = card.serve(request)
        assert hit is False and card.memo.replays == 1
        card.serve(request)  # resident again: the recorded entry replays
        assert card.memo.replays == 2

    def test_installed_scrubber(self, small_bank, small_fleet):
        # A fault-protected card replays while its function's region is
        # clean; an upset there selects the full path, which the hazard
        # detector counts, until a scrub repairs the frame.
        _, card, request = self._warm_card(small_bank, small_fleet)
        copro = card.driver.coprocessor
        scrubber = copro.enable_fault_protection()
        detector = copro.device.hazard_detector
        for _ in range(2):
            assert card.serve(request)[1] is True
        assert (len(card.memo._entries), card.memo.replays) == (1, 3)
        address = copro.device.region_of("crc32").addresses[0]
        copro.device.memory.corrupt_bit(address, 1)
        assert card.serve(request)[1] is True
        assert (card.memo.replays, detector.hazard_executions) == (3, 1)
        assert scrubber.scrub_pass().corrected == 1
        card.serve(request)
        assert (card.memo.replays, detector.hazard_executions) == (4, 1)

    def test_enabled_device_recorder(self, small_bank, small_fleet):
        # A recorder someone enabled by hand is read as a device log, and a
        # replay writes none: the serve runs the full model.  Under a fleet
        # that bridges the recorder it replays (TestTracedDifferential).
        _, card, request = self._warm_card(small_bank, small_fleet)
        _, reference, _ = self._warm_card(small_bank, small_fleet)
        reference.memo = None
        results = []
        for traced in (card, reference):
            traced.driver.coprocessor.trace.enabled = True
            results.append(traced.serve(request))
        assert results[0] == results[1] and results[0][1] is True
        assert (len(card.memo._entries), card.memo.replays) == (1, 1)
        events, _ = recorder_state(card)
        assert len(events) == 15
        assert recorder_state(card) == recorder_state(reference)
        card.driver.coprocessor.trace.enabled = False
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
        assert (copro.minios.stats.hits, copro.minios.stats.misses) == (1, 1)
