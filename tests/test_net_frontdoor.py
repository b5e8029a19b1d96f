"""Unit and end-to-end tests for the network front door (:mod:`repro.net`).

Three layers of coverage:

* **Component units** — links (serialisation, latency, loss, tail-drop),
  the token bucket's priority reserve, the circuit breaker's
  closed/open/half-open walk, and deadline expiry at both dispatch and
  in-queue.
* **End-to-end** — a small fleet behind the front door on clean and lossy
  networks: conservation of request fates, exactly-once execution under
  retransmits, and the gateway dedup cache replaying rather than
  re-executing.
* **Determinism** — identical seeds produce identical fingerprints
  (including the completion-stream digest) across repeated in-process runs;
  the cross-process half lives in ``test_net_determinism.py``.
"""

from __future__ import annotations

import collections
import gc
import os
import sys
from unittest import mock

import pytest

import repro
import repro.net.gateway as gateway_module
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.net import (
    AdmissionConfig,
    CircuitBreaker,
    ClosedLoopPopulation,
    FrontDoor,
    LinkSpec,
    OpenLoopPopulation,
    TokenBucket,
    TransportConfig,
)
from repro.net.link import Link, Packet
from repro.net.transport import RESPONSE_BYTES
from repro.obs import Observability
from repro.obs import names as obs_names
from repro.sim.kernel import Simulator
from repro.sim.rand import SeededRandom
from repro.workloads.multitenant import FleetRequest, default_tenant_mix, multi_tenant_trace


#: Where ``src/repro/`` is, for counting the frames entered under it.
REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep


def make_frontdoor(
    bank,
    cards=2,
    gateways=2,
    loss=0.0,
    retries=3,
    admission=None,
    deadline_ns=30_000_000.0,
    seed=5,
    priorities=None,
    **fleet_kwargs,
):
    fleet = build_fleet(
        cards=cards,
        config=SMALL_CONFIG.with_overrides(seed=seed),
        bank=bank,
        queue_depth=8,
        **fleet_kwargs,
    )
    frontdoor = build_frontdoor(
        fleet,
        seed=seed,
        gateways=gateways,
        uplink=LinkSpec(latency_ns=20_000.0, loss=loss, jitter_ns=4_000.0),
        transport=TransportConfig(max_retries=retries),
        admission=admission,
        priorities=priorities,
        deadline_ns=deadline_ns,
    )
    return frontdoor


def make_trace(bank, length=80, mean_interarrival_ns=40_000.0, seed=5, tenants=2):
    specs = default_tenant_mix(bank, tenants=tenants)
    return specs, multi_tenant_trace(
        bank,
        specs,
        length=length,
        mean_interarrival_ns=mean_interarrival_ns,
        seed=seed,
    )


# ---------------------------------------------------------------------- links
class TestLink:
    def send_through(self, spec, packets, seed=1):
        simulator = Simulator()
        arrived = []
        link = Link(
            simulator,
            spec,
            lambda packet: arrived.append((simulator.clock.now, packet)),
            SeededRandom(seed),
        )
        for packet in packets:
            link.send(packet)
        simulator.run(until_ns=1e9)
        return link, arrived

    def test_clean_link_delivers_in_order_with_wire_time(self):
        spec = LinkSpec(latency_ns=10_000.0, gbps=1.0, jitter_ns=0.0, loss=0.0)
        packets = [Packet("req", index, 125) for index in range(4)]
        link, arrived = self.send_through(spec, packets)
        assert [packet.request_id for _, packet in arrived] == [0, 1, 2, 3]
        assert link.offered == link.delivered == 4
        assert link.lost == link.dropped == 0
        # 125 bytes at 1 Gbit/s = 1000 ns of wire time per packet; packet k
        # finishes serialising at (k+1)*1000 and lands latency later.
        assert [when for when, _ in arrived] == [
            pytest.approx((index + 1) * 1000.0 + 10_000.0) for index in range(4)
        ]

    def test_total_loss_drops_every_packet(self):
        spec = LinkSpec(loss=0.999999, jitter_ns=0.0)
        link, arrived = self.send_through(
            spec, [Packet("req", index, 64) for index in range(32)]
        )
        assert arrived == []
        assert link.lost == 32

    def test_bounded_queue_tail_drops(self):
        # The bound is on packets *waiting*: the first packet goes straight
        # onto the idle wire, three wait behind it, the fifth is dropped.
        # (Three accepted was only ever the answer for a link nothing
        # drained; every running link accepted four.)
        spec = LinkSpec(queue_packets=3)
        simulator = Simulator()
        link = Link(simulator, spec, lambda packet: None, SeededRandom(1))
        results = [link.send(Packet("req", index, 64)) for index in range(5)]
        assert results == [True, True, True, True, False]
        assert link.offered == 5 and link.dropped == 1

    def test_packet_starting_to_serialise_has_left_the_queue(self):
        # 125 B at 1 Gbit/s = 1000 ns: packet 1 waits until t=1000.  A send
        # at exactly t=1000 finds the one-packet queue empty again (<=).
        simulator = Simulator()
        link = Link(simulator, LinkSpec(gbps=1.0, queue_packets=1), lambda p: None, SeededRandom(1))
        assert [link.send(Packet("req", index, 125)) for index in range(3)] == [True, True, False]
        simulator.clock.advance_to(999)
        assert not link.send(Packet("req", 3, 125))
        simulator.clock.advance_to(1000)
        assert link.send(Packet("req", 4, 125))

    def test_loss_probability_must_be_below_one(self):
        with pytest.raises(ValueError):
            LinkSpec(loss=1.0)


# --------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_priority_reserve_sheds_bulk_first(self):
        bucket = TokenBucket(AdmissionConfig(rate_per_s=1.0, burst=10.0, reserve_fraction=0.2))
        # Drain to below the bulk threshold (1 + 0.2*10 = 3 tokens) without
        # letting the (negligible) refill rate matter.
        for _ in range(8):
            assert bucket.admit(0, 0.0)
        assert not bucket.admit(0, 0.0)  # 2 tokens left: bulk needs 3
        assert bucket.admit(1, 0.0)  # priority only needs 1
        assert bucket.admit(1, 0.0)
        assert not bucket.admit(1, 0.0)  # reserve exhausted too

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(AdmissionConfig(rate_per_s=1e9, burst=4.0))
        for _ in range(4):
            assert bucket.admit(1, 0.0)
        # A long idle period refills to the burst cap, not beyond it.
        for _ in range(4):
            assert bucket.admit(1, 1e9)
        assert not bucket.admit(1, 1e9)


# ------------------------------------------------------------ circuit breaker
class TestCircuitBreaker:
    def test_closed_open_halfopen_walk(self):
        breaker = CircuitBreaker(threshold=3, open_ns=1000.0)
        assert breaker.allow(0.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.0)  # third failure opens
        assert breaker.state == "open"
        assert not breaker.allow(500.0)
        assert breaker.allow(1000.0)  # half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow(1000.0)  # only one probe per window
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_halfopen_failure_reopens_immediately(self):
        breaker = CircuitBreaker(threshold=3, open_ns=1000.0)
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(1000.0)
        assert breaker.record_failure(1500.0)  # probe failed: reopen
        assert breaker.state == "open"
        assert not breaker.allow(2000.0)
        assert breaker.allow(2500.0)


# ------------------------------------------------------------------ deadlines
class TestDeadlines:
    def test_expired_at_dispatch_is_never_served(self, small_bank):
        fleet = build_fleet(
            cards=1, config=SMALL_CONFIG.with_overrides(seed=3), bank=small_bank
        )
        fleet.clock.advance(1_000.0)
        request = FleetRequest(
            tenant="t0",
            function="crc32",
            payload=b"x",
            arrival_ns=0.0,
            deadline_ns=500.0,
        )
        fleet.submit(request)
        fleet.simulator.run()
        assert fleet.stats.expired == 1
        assert fleet.stats.completed == 0

    def test_unexpired_request_completes(self, small_bank):
        fleet = build_fleet(
            cards=1, config=SMALL_CONFIG.with_overrides(seed=3), bank=small_bank
        )
        request = FleetRequest(
            tenant="t0",
            function="crc32",
            payload=b"x",
            arrival_ns=0.0,
            deadline_ns=1e9,
        )
        fleet.submit(request)
        fleet.simulator.run()
        assert fleet.stats.completed == 1
        assert fleet.stats.expired == 0

    def test_no_deadline_means_no_expiry(self, small_bank):
        fleet = build_fleet(
            cards=1, config=SMALL_CONFIG.with_overrides(seed=3), bank=small_bank
        )
        fleet.clock.advance(1e12)
        request = FleetRequest(
            tenant="t0", function="crc32", payload=b"x", arrival_ns=0.0
        )
        fleet.submit(request)
        fleet.simulator.run()
        assert fleet.stats.completed == 1


# ----------------------------------------------------------------- end-to-end
def assert_conservation(frontdoor, stats, issued):
    """Every request has exactly one client fate; execution is exactly-once."""
    assert stats.net_requests == issued
    assert stats.net_completed + stats.net_failed == issued
    admitted = sum(gateway.admitted for gateway in frontdoor.gateways)
    # Each admission reaches exactly one terminal fleet verdict...
    assert stats.completed + stats.rejected + stats.expired == admitted
    # ...and dedup means a request is admitted (hence executed) at most once.
    assert admitted <= issued
    assert stats.net_completed <= stats.completed


class TestFrontDoorEndToEnd:
    def test_clean_network_everything_completes(self, small_bank):
        frontdoor = make_frontdoor(small_bank)
        _, trace = make_trace(small_bank)
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        assert_conservation(frontdoor, stats, len(trace))
        assert stats.client_availability == 1.0
        assert stats.net_retries == 0
        assert stats.net_completed == stats.completed == len(trace)

    def test_lossy_network_retries_recover_exactly_once(self, small_bank):
        frontdoor = make_frontdoor(small_bank, loss=0.15)
        _, trace = make_trace(small_bank)
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        assert_conservation(frontdoor, stats, len(trace))
        assert stats.net_retries > 0
        assert stats.client_availability > 0.9
        # Lost responses cause retransmits of already-served requests; the
        # gateway must answer those from cache, never re-execute.
        assert stats.completed <= len(trace)

    def test_lossy_network_without_retries_fails_requests(self, small_bank):
        frontdoor = make_frontdoor(small_bank, loss=0.15, retries=0)
        _, trace = make_trace(small_bank)
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        assert_conservation(frontdoor, stats, len(trace))
        assert stats.net_failed > 0
        assert stats.client_availability < 1.0

    def test_admission_sheds_bulk_before_priority(self, small_bank):
        specs, trace = make_trace(
            small_bank, length=150, mean_interarrival_ns=2_000.0
        )
        frontdoor = make_frontdoor(
            small_bank,
            admission=AdmissionConfig(rate_per_s=50_000.0, burst=4.0),
            priorities={specs[0].name: 1},
        )
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        assert_conservation(frontdoor, stats, len(trace))
        assert stats.shed_total > 0
        gold_shed = stats.per_priority_shed[1] / max(1, stats.per_priority_requests[1])
        bulk_shed = stats.per_priority_shed[0] / max(1, stats.per_priority_requests[0])
        assert gold_shed < bulk_shed

    def test_closed_loop_population_completes_all(self, small_bank):
        _, trace = make_trace(small_bank, length=12)
        frontdoor = make_frontdoor(small_bank)
        frontdoor.add_population(
            ClosedLoopPopulation(
                trace,
                clients=3,
                requests_per_client=4,
                think_ns=50_000.0,
                rng=SeededRandom(9).fork("think"),
            )
        )
        stats = frontdoor.run()
        assert stats.net_requests == 12
        assert stats.net_completed == 12

    def test_run_without_population_raises(self, small_bank):
        frontdoor = make_frontdoor(small_bank)
        with pytest.raises(ValueError):
            frontdoor.run()

    def test_dead_cards_fail_fast(self, small_bank):
        frontdoor = make_frontdoor(small_bank, cards=2, retries=1)
        for card in frontdoor.fleet.cards:
            card.health = "down"
        _, trace = make_trace(small_bank, length=10)
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        # The health probe flips cards_up after its first period; everything
        # afterwards fails fast at the gateway instead of timing out.
        assert stats.net_failed == stats.net_requests == 10
        assert stats.completed == 0

    def test_every_transit_lasts_at_least_its_link_latency(self, small_bank):
        """A retransmit of a served request replays the gateway's cached
        verdict packet, so two sends of one packet object can be in the air
        at once; each transit span starts at its own send."""
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=5),
            bank=small_bank,
            queue_depth=8,
            observability=Observability(),
        )
        frontdoor = build_frontdoor(
            fleet,
            seed=5,
            gateways=1,
            uplink=LinkSpec(latency_ns=20_000),
            transport=TransportConfig(
                per_hop_timeout_ns=30_000, backoff_base_ns=1_000, backoff_cap_ns=4_000
            ),
        )
        _, trace = make_trace(small_bank, length=300)
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
        assert stats.duplicates_served > 0
        transits = fleet.obs.tracer.by_name(obs_names.SPAN_LINK_TRANSIT)
        assert len(transits) == frontdoor.link_summary()["delivered"]
        assert min(span.duration_ns for span in transits) >= 20_000


class TestKernelWorkPerRequest:
    #: Builtin calls a clean request makes, by name.
    REQUEST_BUILTINS = {
        "dict.get": 13, "len": 7, "heappush": 5, "heappop": 5, "list.append": 3, "round": 2,
        "isinstance": 2, "str.encode": 2, "deque.append": 1, "deque.popleft": 1,
        "generator.send": 1, "list.clear": 1, "dict.pop": 1,
    }
    #: Builtin calls the 2 000 extra requests make between them, not each.
    RUN_BUILTINS = {
        "bytes.join": 16, "HASH.update": 16, "list.clear": 16, "log": 64, "ceil": 64, "len": 64,
    }

    def test_a_request_costs_six_kernel_events(self, small_bank):
        """The admit path's deterministic work counter (ROADMAP aim 1).

        On a lossless, jitter-free front door below every limit a request
        costs six kernel events — its arrival, the uplink delivery, the
        per-hop timeout entry (it always fires; a superseded one is a no-op),
        the start of service on an idle card, the service time and the
        downlink delivery — and nothing else dispatches but process starts
        (a card is not a process) and gateway probe ticks.
        A per-packet or per-attempt process breaks the equality.
        """
        requests, cards, gateways = 500, 2, 2
        spec = LinkSpec()
        fleet = build_fleet(
            cards=cards,
            config=SMALL_CONFIG.with_overrides(seed=11),
            bank=small_bank,
            queue_depth=8,
        )
        frontdoor = build_frontdoor(fleet, seed=11, gateways=gateways, uplink=spec)
        _, trace = make_trace(
            small_bank, length=requests, mean_interarrival_ns=100_000.0, seed=11
        )
        frontdoor.add_population(OpenLoopPopulation(trace))
        fleet.stats.digest_tap = served = []
        stats = frontdoor.run()
        assert stats.net_completed == stats.completed == requests
        assert stats.net_retries == 0
        starts = gateways + 1  # probes, the one population
        # The population sleeps once per distinct arrival instant after t=0.
        arrival_sleeps = len({request.arrival_ns for request in trace} - {0})
        # A request that found its card busy is started by the ``_finish``
        # before it, synchronously — no start entry.  A served digest line
        # ends ...|arrival_ns|started_ns|completed_ns.
        queued = sum(
            started_ns > int(line.split(b"|")[5]) for _, started_ns, line in served
        )
        # Each probe ticks once a period up to the first tick that finds the
        # last response delivered.
        last_response_ns = (
            stats.last_completion_ns
            + round(RESPONSE_BYTES * 8.0 / spec.gbps)
            + spec.latency_ns
        )
        period_ns = gateway_module.PROBE_PERIOD_NS
        probe_ticks = gateways * -(-last_response_ns // period_ns)
        assert fleet.simulator.events_dispatched == (
            starts + arrival_sleeps + 5 * requests - queued + probe_ticks
        )


    @staticmethod
    def _frames(bank, requests):
        """``{code object: Python frames entered}`` under ``src/repro/`` for
        one clean front-door run of *requests* requests."""
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=5),
            bank=bank,
            policy="affinity",
            queue_depth=8,
            stats_mode="sketch",
        )
        frontdoor = FrontDoor(
            fleet,
            SeededRandom(5).fork("net"),
            gateways=2,
            uplink=LinkSpec(latency_ns=20_000),
            deadline_ns=30_000_000,
        )
        _, trace = make_trace(bank, length=requests, mean_interarrival_ns=100_000.0)
        frontdoor.add_population(OpenLoopPopulation(trace))
        frames = collections.Counter()

        def count_calls(frame, event, arg):
            if event == "call":
                filename = frame.f_code.co_filename
                if filename.startswith(REPRO_ROOT) or filename == "<string>":
                    frames[frame.f_code] += 1
            elif event == "c_call":
                frames["c_call:" + arg.__qualname__] += 1

        previous = sys.getprofile()
        # A suspended generator an earlier test left behind, closed by a
        # collection inside the run, would enter a frame the run does not own.
        gc.collect()
        gc.disable()
        # One probe tick per gateway for the whole run.
        with mock.patch.object(gateway_module, "PROBE_PERIOD_NS", 10**12):
            sys.setprofile(count_calls)
            try:
                stats = frontdoor.run()
            finally:
                sys.setprofile(previous)
                gc.enable()
        assert stats.net_completed == stats.completed == requests
        assert stats.net_retries == stats.net_timeouts == 0
        return frames

    def test_a_clean_request_enters_43_frames(self, small_bank):
        """The admit path's host-side work counter (ROADMAP item 1).

        Python frames entered under ``src/repro/`` per request, by package,
        on a lossless, jitter-free, unadmitted front door in sketch mode —
        ``(frames(4 000) - frames(2 000)) / 2 000``, an exact integer because
        every request takes the same path.  Frames of generated code (file
        ``<string>``: a dataclass's ``__init__``, ``__eq__``, ``__hash__``)
        are counted too, and there must be none.  Hop by hop:

        * **launch** — the kernel steps the population (``sim`` 1), which
          resumes ``open_arrivals`` (``cluster`` 1); ``FrontDoor.launch``,
          ``GatewayRequest()``, ``Transport.submit``, ``_Pending()``,
          ``_send``, ``Packet()`` and the uplink's ``Link.send`` (``net`` 7).
          The arrival and the timeout are pushed straight onto the kernel
          heap: no frame.
        * **uplink arrival** — ``Link._arrive``, ``Gateway.on_request`` and
          the admitted copy's ``GatewayRequest()`` (``net`` 3);
          ``Fleet.submit``, ``_route``, ``policy.choose``, ``_put``
          (``cluster`` 4).
        * **start of service** — ``_start``, ``card.serve``,
          ``ServeMemo.replay``, ``_safe`` (``cluster`` 4); the replacement
          policy's three ``__contains__``, two ``touch`` and one ``entry``
          (``mcu`` 6); ``record_hit_replay`` (``core`` 1) and its latency
          sketch's ``add`` (``analysis`` 1).
        * **end of service** — ``_finish``, ``record_completion``
          (``cluster`` 2); ``bucket_index`` once, ``add_with_index`` for the
          tenant and the fleet (``analysis`` 3); ``_on_fleet_outcome``,
          ``Gateway.finish``, ``Packet()`` and the downlink's ``Link.send``
          (``net`` 4).
        * **downlink arrival** — ``Link._arrive``, ``Transport.on_response``
          (``net`` 2); ``record_net_completion`` and ``_note``
          (``cluster`` 2); the net latency sketch's ``add`` (``analysis`` 1).
        * **the timeout entry**, superseded — ``_on_timeout`` (``net`` 1).

        49 (without the two uncounted generated ``__init__``) before: a
        ``schedule_call`` per arrival and timeout (``sim`` 3), a ``launch``
        closure around ``make_request``, a ``_complete`` under
        ``on_response`` (``net`` 2), a ``Fleet.submit`` around
        ``_dispatch`` and two ``request_expired`` (``cluster`` 3).  65 before
        each hop did its job in one call: a counter bumped through
        ``FleetStatistics`` cost ``cluster`` a ``record_net_*`` frame and a
        descriptor ``__get__`` + ``__set__`` (8), every ``schedule_call`` an
        ``as_ns`` and the completion a ``clock.now`` (``sim`` 4), a closed or
        clean breaker an ``allow`` and a ``record_success`` and the downlink
        a forwarding ``_on_response`` (``net`` 3), the packet size a
        ``payload_bytes`` property (``workloads`` 1).  Comprehension frames
        would differ across Python versions, so none may be on the path.

        Beside the frames, the builtin calls (``sys.setprofile``'s ``c_call``
        events, by name) over the 2 000 extra requests are pinned too:
        :data:`REQUEST_BUILTINS` per request (44, 13 of them ``dict.get`` and
        10 the kernel heap's ``heappush`` / ``heappop``; 43 before the memo
        keyed an entry by the payload's ``len``), and on top the
        amortised :data:`RUN_BUILTINS` — 16 flushes of the schedule digest's
        256-line buffer (``bytes.join``, ``HASH.update``, ``list.clear``)
        and 64 sojourns the sketches' bucket memo had not seen (``log``,
        ``ceil`` and the memo's ``len``).
        """
        small = self._frames(small_bank, 2_000)
        large = self._frames(small_bank, 4_000)
        per_request = collections.Counter()
        builtins = collections.Counter()
        for code in large:
            extra = large[code] - small[code]
            if extra and isinstance(code, str):
                builtins[code[len("c_call:"):]] += extra
            elif extra:
                assert code.co_name not in ("<listcomp>", "<genexpr>"), code
                assert code.co_filename != "<string>", code
                package = code.co_filename[len(REPRO_ROOT):].split(os.sep, 1)[0]
                per_request[package] += extra / 2_000
        assert dict(per_request) == {
            "net": 17,
            "cluster": 13,
            "mcu": 6,
            "analysis": 5,
            "sim": 1,
            "core": 1,
        }
        assert sum(per_request.values()) == 43
        expected = collections.Counter({name: 2_000 * n for name, n in self.REQUEST_BUILTINS.items()})
        assert builtins == expected + collections.Counter(self.RUN_BUILTINS)
        assert sum(self.REQUEST_BUILTINS.values()) == 44


class TestReusedFrontDoor:
    #: ``fingerprint()`` after each of three runs of one front door, as the
    #: tree before the pruning fix produces them: forgetting finished
    #: populations changes no schedule.
    FINGERPRINTS = [
        (48, 48, 0, 11, 0, 0, 7150926,
         "e4723902c9cae2f2d566cc0f04fcd77f58e0003395e7f4179e3e25382c101a0d"),
        (96, 96, 0, 18, 0, 0, 16067045,
         "87ccf41c68cf21c9b47d09fb876979a1cc7518c9353666e1c35dfd8356337f34"),
        (144, 144, 0, 20, 0, 0, 20746522,
         "47cfd8459c89a878e7712900f2cb02419be9bc0387d93108c6c336158f94ef93"),
    ]

    def test_run_forgets_finished_populations(self, small_bank):
        """``_net_idle`` is polled by every probe and service tick; it reads
        a count of the clients still sending, which every run drains to 0."""
        _, trace = make_trace(small_bank, length=48)
        frontdoor = make_frontdoor(small_bank, loss=0.05)
        fingerprints = []
        for run in range(3):
            frontdoor.add_population(
                ClosedLoopPopulation(
                    trace,
                    clients=8,
                    requests_per_client=6,
                    think_ns=50_000,
                    rng=SeededRandom(9).fork(f"think-{run}"),
                )
            )
            frontdoor.run()
            assert frontdoor._live_clients == 0
            assert frontdoor._net_idle()
            fingerprints.append(frontdoor.fingerprint())
        assert fingerprints[-1][0] == 3 * 8 * 6
        assert fingerprints == self.FINGERPRINTS


class TestDeterminism:
    def test_identical_seeds_identical_fingerprints(self, small_bank):
        def run():
            frontdoor = make_frontdoor(small_bank, loss=0.10)
            _, trace = make_trace(small_bank)
            frontdoor.add_population(OpenLoopPopulation(trace))
            frontdoor.run()
            return frontdoor.fingerprint()

        first, second = run(), run()
        assert first == second
        assert first[0] > 0

    def test_net_disabled_digest_matches_plain_fleet(self, small_bank, small_trace):
        def run():
            fleet = build_fleet(
                cards=2, config=SMALL_CONFIG.with_overrides(seed=3), bank=small_bank
            )
            fleet.run(small_trace(small_bank))
            return fleet.fingerprint()

        # The deadline/outcome-callback plumbing is inert without a front
        # door: a plain fleet run must reproduce the pre-network schedule.
        assert run() == run()
