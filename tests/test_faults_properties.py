"""Property-based invariants of the fault/scrub/self-healing layer.

Four guarantees the reliability story rests on:

1. **Scrub soundness** — whatever bits upsets flip, the frame afterwards is
   either CRC-detected (and then repaired byte-identically to golden) or its
   readback never changed in the first place (the flips cancelled out).
   There is no third outcome.
2. **The suspect-frame walk is the per-frame walk** — the scrubber checks
   only the configuration memory's ``suspect`` frames, yet agrees with the
   frame-by-frame reference (``tests/oracles/scrubber.py``) on every result,
   counter, cursor, clock instant and frame, and every frame that fails its
   check word is suspect.
3. **Check words are never stale** — a frame's check word is stored beside
   its bytes (a load's check words are worked out once per image): under
   any sequence of loads, evictions, migration restores, defrag passes,
   upsets and scrubs, every frame outside ``suspect`` matches its check word
   and every unowned frame holds the erased image and its check word.
4. **Request conservation under card kills** — however cards die, every
   arrival is eventually completed or rejected; the FleetStatistics counters
   balance exactly and nothing is silently dropped.
"""

import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.scrubber import ReferenceScrubber
from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec, GoldenImageStore, Scrubber
from repro.fpga.device import FPGADevice
from repro.fpga.errors import FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry
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
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corruption_is_detected_or_byte_identical(self, upsets):
        copro = _protected_card()
        memory = copro.device.memory
        golden = copro.device.golden
        frames = copro.geometry.all_frames()
        total_bits = copro.geometry.frame_config_bytes * 8

        for flat, bit in upsets:
            address = frames[flat % len(frames)]
            memory.corrupt_bit(address, bit % total_bits)

        # Every frame whose final readback differs from golden must fail its
        # CRC: the corruption is detectable, never silent at scrub time.
        # (Flips that cancelled out leave the frame byte-identical — the
        # other arm of the dichotomy.)
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
        """One flip takes the first arm: the readback changes, the CRC fails
        and the frame is suspect.  (Only an even number of flips of one bit
        leaves the readback as it was.)"""
        copro = _protected_card()
        memory = copro.device.memory
        frames = copro.geometry.all_frames()
        address = frames[flat % len(frames)]
        total_bits = copro.geometry.frame_config_bytes * 8
        before = memory.read_frame(address)
        memory.corrupt_bit(address, bit % total_bits)
        assert memory.read_frame(address) != before
        assert not memory.frame_crc_ok(address)
        assert address in memory.suspect


# Twelve 66-byte frames.
_WALK_GEOMETRY = FabricGeometry(columns=3, rows=8, clb_rows_per_frame=2)
_WALK_FRAMES = _WALK_GEOMETRY.all_frames()
_frame_indices = st.lists(
    st.integers(min_value=0, max_value=len(_WALK_FRAMES) - 1), unique=True, max_size=5
)
_WALK_STEPS = st.one_of(
    # write: frames, payload seed, owner, capture the golden image?
    st.tuples(
        st.just("write"), _frame_indices, st.binary(min_size=1, max_size=8),
        st.sampled_from(["f", "g", None]), st.booleans(),
    ),
    st.tuples(st.just("clear"), _frame_indices),
    # upset: frame, bit
    st.tuples(
        st.just("upset"), st.integers(0, len(_WALK_FRAMES) - 1),
        st.integers(0, _WALK_GEOMETRY.frame_config_bytes * 8 - 1),
    ),
    st.tuples(st.just("pass"), st.one_of(st.none(), st.integers(0, 2 * len(_WALK_FRAMES)))),
    st.tuples(st.just("region"), _frame_indices),
)


class _WalkSide:
    """One device, golden store and scrubber, logging the clock at each write."""

    def __init__(self, scrubber_class) -> None:
        self.device = FPGADevice(_WALK_GEOMETRY)
        self.memory = self.device.memory
        self.golden = GoldenImageStore(_WALK_GEOMETRY.frame_config_bytes)
        self.scrubber = scrubber_class(self.device, self.golden)
        self.writes = []
        write_region = self.memory.write_region

        def logged(addresses, payloads, check_words, owner=None):
            self.writes.append((self.device.clock.now, tuple(addresses)))
            return write_region(addresses, payloads, check_words, owner=owner)

        self.memory.write_region = logged

    def apply(self, step):
        kind, *args = step
        if kind == "write":
            indices, seed, owner, golden = args
            region = [_WALK_FRAMES[i] for i in indices]
            length = _WALK_GEOMETRY.frame_config_bytes
            payloads = [((seed + bytes([i])) * length)[:length] for i in indices]
            try:
                self.memory.write_region(region, payloads, [zlib.crc32(p) for p in payloads], owner=owner)
            except FrameCollisionError as error:
                return ("collision", error.owner)
            if golden:
                self.golden.capture(region, self.memory.read_region(region))
            return None
        if kind == "clear":
            region = [_WALK_FRAMES[i] for i in args[0]]
            self.memory.clear_region(region)
            self.golden.release(region)
            return None
        if kind == "upset":
            flat, bit = args
            return self.memory.corrupt_bit(_WALK_FRAMES[flat], bit)
        if kind == "pass":
            return self.scrubber.scrub_pass(args[0])
        return self.scrubber.scrub_region(FrameRegion(tuple(_WALK_FRAMES[i] for i in args[0])))

    def state(self):
        frames = self.memory.frames
        return (
            self.scrubber.stats,
            self.scrubber._cursor,
            self.device.clock.now,
            self.writes,
            [
                (frames[a].to_config_bytes(), frames[a].stored_crc, self.memory.owner_of(a))
                for a in _WALK_FRAMES
            ],
        )


class TestScrubWalkAgainstReference:
    @given(steps=st.lists(_WALK_STEPS, min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_suspect_walk_equals_the_per_frame_walk(self, steps):
        walk, reference = _WalkSide(Scrubber), _WalkSide(ReferenceScrubber)
        for step in steps:
            assert walk.apply(step) == reference.apply(step)
            assert walk.state() == reference.state()
            for side in (walk, reference):
                frames = side.memory.frames
                corrupt = {a for a in _WALK_FRAMES if not frames[a].crc_ok}
                assert corrupt <= side.memory.suspect


_NAMES = _BANK.names()
_CARD_STEPS = st.one_of(
    # loads twice as often, so the fabric holds something to act on
    st.tuples(st.just("load"), st.sampled_from(_NAMES)),
    st.tuples(st.just("load"), st.sampled_from(_NAMES)),
    st.tuples(st.just("evict"), st.sampled_from(_NAMES)),
    # capture a resident function, evict it and restore it from the blob
    st.tuples(st.just("restore"), st.sampled_from(_NAMES)),
    st.tuples(st.just("defrag"), st.one_of(st.none(), st.integers(1, 3))),
    # upset: which configured frame (wrapped), which bit (wrapped)
    st.tuples(st.just("upset"), st.integers(0, 1 << 10), st.integers(0, 1 << 16)),
    st.tuples(st.just("scrub"), st.one_of(st.none(), st.integers(1, 80))),
)


def _apply_card_step(copro, step):
    kind, *args = step
    memory = copro.device.memory
    if kind == "load":
        copro.preload(args[0])
    elif kind == "evict":
        copro.evict(args[0])
    elif kind == "restore":
        if copro.is_loaded(args[0]):
            blob = copro.capture_function(args[0])
            copro.evict(args[0])
            copro.restore_function(args[0], blob)
    elif kind == "defrag":
        copro.defrag(max_moves=args[0])
    elif kind == "upset":
        configured = memory.configured_frames()
        if configured:
            flat, bit = args
            memory.corrupt_bit(configured[flat % len(configured)], bit % (memory.geometry.frame_config_bytes * 8))
    else:
        copro.scrub(max_frames=args[0])


class TestCheckWordsNeverStale:
    @given(steps=st.lists(_CARD_STEPS, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_frame_outside_suspect_matches_its_check_word(self, steps):
        """Upsets land on configured frames, as the fault injector's targeted
        process aims them, so an erase is the only way a frame becomes
        unowned and every unowned frame is erased."""
        copro = build_coprocessor(config=SMALL_CONFIG, bank=_BANK)
        copro.enable_fault_protection()
        copro.enable_defrag()
        memory = copro.device.memory
        erased = bytes(copro.geometry.frame_config_bytes)
        for step in steps:
            _apply_card_step(copro, step)
            for address, frame in memory.frames.by_address.items():
                readback = memory.read_frame(address)
                if address not in memory.suspect:
                    assert frame.stored_crc == zlib.crc32(readback), (step, address)
                if memory.owner_of(address) is None:
                    assert (readback, frame.stored_crc) == (erased, zlib.crc32(erased)), (step, address)


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
