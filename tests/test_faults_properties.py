"""Property-based invariants of the fault/scrub/self-healing layer.

Two guarantees the reliability story rests on:

1. **Scrub soundness** — whatever bits an upset flips, the frame afterwards
   is either CRC-detected (and then repaired byte-identically to golden) or
   its canonical readback never changed in the first place (the flip landed
   in padding the CLB parser masks).  There is no third outcome.
2. **Request conservation under card kills** — however cards die, every
   arrival is eventually completed or rejected; the FleetStatistics counters
   balance exactly and nothing is silently dropped.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec
from repro.functions.bank import build_small_bank
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

_BANK = build_small_bank()


def _protected_card():
    copro = build_coprocessor(config=SMALL_CONFIG, bank=_BANK)
    copro.enable_fault_protection()
    copro.preload("crc32")
    copro.preload("adder8")
    return copro


class TestScrubSoundness:
    @given(
        upsets=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),   # frame (flat index)
                st.integers(min_value=0, max_value=2000),  # bit offset (wrapped)
                st.integers(min_value=1, max_value=8),     # burst width
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corruption_is_detected_or_byte_identical(self, upsets):
        copro = _protected_card()
        memory = copro.device.memory
        golden = copro.device.golden
        frames = copro.geometry.all_frames()
        total_bits = copro.geometry.frame_config_bytes * 8

        for flat, bit, burst in upsets:
            address = frames[flat % len(frames)]
            memory.corrupt_bit(address, bit % total_bits, bits=burst)

        # Every frame whose final readback differs from golden must fail its
        # CRC: the corruption is detectable, never silent at scrub time.
        # (Flips that cancelled out or landed in parser-masked padding leave
        # the frame byte-identical — the other arm of the dichotomy.)
        changed_frames = {
            address
            for address in frames
            if memory.read_frame(address) != golden.payload_for(address)
        }
        for address in changed_frames:
            assert not memory.frame_crc_ok(address)

        detected_before = copro.scrubber.stats.detected
        copro.scrubber.scrub_pass()
        detected = copro.scrubber.stats.detected - detected_before
        assert detected >= len(changed_frames)
        assert copro.scrubber.stats.uncorrectable == 0

        # After the pass every frame is byte-identical to its golden image
        # (zeros for unowned frames) and passes its check word.
        for address in frames:
            assert memory.read_frame(address) == golden.payload_for(address)
            assert memory.frame_crc_ok(address)

    @given(
        flat=st.integers(min_value=0, max_value=63),
        bit=st.integers(min_value=0, max_value=4000),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_flip_dichotomy(self, flat, bit):
        """One flip: either readback changed AND CRC fails, or neither."""
        copro = _protected_card()
        memory = copro.device.memory
        frames = copro.geometry.all_frames()
        address = frames[flat % len(frames)]
        total_bits = copro.geometry.frame_config_bytes * 8
        before = memory.read_frame(address)
        changed = memory.corrupt_bit(address, bit % total_bits)
        after = memory.read_frame(address)
        assert changed == (before != after)
        assert memory.frame_crc_ok(address) == (not changed)


class TestKilledCardConservation:
    @given(
        kills=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2_500_000.0),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda kill: kill[1],
        ),
        seed=st.integers(min_value=0, max_value=5),
        interarrival=st.sampled_from([4_000.0, 15_000.0, 40_000.0]),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_arrivals_are_completed_or_rejected_never_lost(
        self, kills, seed, interarrival
    ):
        trace = multi_tenant_trace(
            _BANK,
            default_tenant_mix(_BANK, tenants=2, skew=1.2),
            length=60,
            mean_interarrival_ns=interarrival,
            seed=seed,
        )
        fleet = build_fleet(
            cards=3,
            config=SMALL_CONFIG.with_overrides(seed=seed),
            bank=_BANK,
            policy="affinity",
            queue_depth=4,
            fault_tolerance=True,
            fault_spec=FaultSpec(
                card_kill_times_ns=tuple((t, i) for t, i in kills), seed=seed
            ),
        )
        stats = fleet.run(trace)
        # The conservation law: nothing in flight, nothing dropped.
        assert stats.arrivals == len(trace)
        assert stats.completed + stats.rejected == stats.arrivals
        assert all(card.outstanding == 0 for card in fleet.cards)
        assert len(fleet.cards[0].queue) == 0
        # Per-tenant views balance too.
        for tenant in stats.tenants():
            arrivals = stats.per_tenant_arrivals.get(tenant, 0)
            done = stats.per_tenant_completed.get(tenant, 0)
            rejected = stats.per_tenant_rejected.get(tenant, 0)
            assert done + rejected == arrivals
        # Every kill the injector actually fired took a card down (kills
        # scheduled after the fleet drained legitimately never fire), and
        # dispatch counters only name real cards.
        cards_down = sum(1 for card in fleet.cards if card.health == "down")
        assert cards_down == stats.card_failures
        assert cards_down <= len({index for _, index in kills})
        card_names = {card.name for card in fleet.cards}
        assert set(stats.per_card_dispatched) <= card_names
