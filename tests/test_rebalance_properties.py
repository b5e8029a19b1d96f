"""Property-based invariants of live migration and defragmentation.

The two guarantees the rebalance story rests on:

1. **Migration is byte-exact** — for any resident function and any prior
   load/evict history on the destination (i.e. any destination free-space
   shape), migrate(source → dest) leaves the destination's readback
   byte-identical to the source's, slot for slot, with every CRC check word
   valid and the golden image stores consistent on both cards.  Placement may
   differ — that is the *relocatable* part — but never a payload byte.

2. **Defragmentation is a permutation** — for any load/evict history, a
   defrag pass preserves each function's payload *sequence* exactly (the same
   bytes in the same slot order, possibly at new addresses), preserves the
   exact owned-frame multiset sizes, keeps every ``ConfigurationMemory``
   index consistent with a naive full scan, and never decreases the largest
   contiguous free run.

Beside them, the two control-tick planners are held ``==`` the ones they
replaced (``tests/oracles/``): the rebalancer's orders at every tick of
stepped fleets, and the defragmenter's packing plan on drawn tables.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.bench_e11_rebalance import build_trace, run_cell
from oracles.defrag import reference_packed_targets
from oracles.rebalance import ReferenceRebalancer
from repro.cluster.rebalance import Rebalancer
from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG
from repro.core.host import build_host_system
from repro.core.exceptions import CoprocessorError
from repro.fpga.frame import FrameRegion
from repro.functions.bank import build_small_bank
from repro.mcu.minios import Defragmenter, MiniOs

_BANK = build_small_bank()
_NAMES = _BANK.names()

#: A load/evict history: (function index, evict?) pairs applied in order.
_HISTORY = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(_NAMES) - 1), st.booleans()),
    min_size=0,
    max_size=10,
)


def _protected_driver(seed=17):
    coprocessor = build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=seed), bank=_BANK)
    coprocessor.enable_fault_protection()
    coprocessor.enable_defrag()
    return build_host_system(coprocessor)


def _apply_history(driver, history) -> None:
    for index, evict in history:
        name = _NAMES[index]
        try:
            if evict:
                driver.evict(name)
            else:
                driver.preload(name)
        except CoprocessorError:
            pass  # capacity refusals are part of a legitimate history


def _assert_memory_indexes_consistent(coprocessor) -> None:
    """Every ownership query answers exactly like a naive per-frame scan."""
    memory = coprocessor.device.memory
    geometry = coprocessor.geometry
    frames = geometry.all_frames()
    naive_unowned = [a for a in frames if memory.owner_of(a) is None]
    assert memory.unowned_frames() == naive_unowned
    report = memory.owners()
    for name in coprocessor.minios.resident_functions():
        naive = [a for a in frames if memory.owner_of(a) == name]
        assert report.get(name, []) == naive
    # The mini OS's free list is the device's unowned frames.
    assert coprocessor.minios.free_frames() == memory.unowned_frames()


class TestMigrationByteExactness:
    @given(
        function=st.integers(min_value=0, max_value=len(_NAMES) - 1),
        dest_history=_HISTORY,
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_migrate_preserves_bytes_crc_and_golden(self, function, dest_history, seed):
        name = _NAMES[function]
        # Fleet cards are identically configured (same bank, same seed): a
        # restore landing on a card that already holds the function is a hit
        # on the *same* image, which is what makes it a legitimate no-op.
        source = _protected_driver(seed)
        dest = _protected_driver(seed)
        _apply_history(dest, dest_history)
        source.preload(name)
        source_payloads = source.coprocessor.device.readback(name)

        blob = source.capture_function(name)
        try:
            dest.restore_function(name, blob)
        except CoprocessorError:
            # The destination's history can leave too little capacity even
            # after eviction planning; a refused restore must leave the
            # source fully serviceable and the destination untouched.
            assert source.coprocessor.minios.is_resident(name)
            assert source.coprocessor.device.readback(name) == source_payloads
            return
        source.evict(name)

        dest_device = dest.coprocessor.device
        # Byte-identical modulo the address rebase: same payloads, same slot
        # order, wherever the destination's mini OS placed them.
        assert dest_device.readback(name) == source_payloads
        for address in dest_device.region_of(name):
            assert dest_device.memory.frame_crc_ok(address)
        # Golden stores are consistent on both cards: captured on the
        # destination, released on the source.
        golden = dest_device.golden
        for address, payload in zip(dest_device.region_of(name), source_payloads):
            assert golden.payload_for(address) == payload
        source_device = source.coprocessor.device
        for address in source_device.memory.unowned_frames():
            assert address not in source_device.golden._images or (
                source_device.golden.payload_for(address)
                == source_device.memory.read_frame(address)
            )
        _assert_memory_indexes_consistent(source.coprocessor)
        _assert_memory_indexes_consistent(dest.coprocessor)


class TestDefragPermutation:
    @given(
        history=_HISTORY,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_defrag_preserves_functions_and_invariants(self, history, budget, seed):
        driver = _protected_driver(seed)
        _apply_history(driver, history)
        coprocessor = driver.coprocessor
        device = coprocessor.device
        resident = coprocessor.minios.resident_functions()
        readbacks = {fn: device.readback(fn) for fn in resident}
        owned_counts = {fn: len(device.region_of(fn)) for fn in resident}
        run_before = coprocessor.minios.placer.largest_free_run(coprocessor.minios.free_frames())

        coprocessor.defrag(max_moves=budget)

        # Exact owned-frame multiset: same functions, same frame counts.
        assert coprocessor.minios.resident_functions() == resident
        for fn in resident:
            assert len(device.region_of(fn)) == owned_counts[fn]
            # Payload sequence preserved byte for byte, slot for slot.
            assert device.readback(fn) == readbacks[fn]
            for address in device.region_of(fn):
                assert device.memory.frame_crc_ok(address)
                assert device.golden.payload_for(address) == device.memory.read_frame(
                    address
                )
        # Compaction never fragments: the largest free run cannot shrink.
        assert coprocessor.minios.placer.largest_free_run(coprocessor.minios.free_frames()) >= run_before
        _assert_memory_indexes_consistent(coprocessor)
        # Vacated frames really are erased (a relocation must not leave
        # ghost configuration behind for the scrubber to "repair").
        for address in device.memory.unowned_frames():
            assert not any(device.memory.frames[address].to_config_bytes())

    @given(history=_HISTORY, seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_full_defrag_reaches_zero_fragmentation(self, history, seed):
        driver = _protected_driver(seed)
        _apply_history(driver, history)
        coprocessor = driver.coprocessor
        coprocessor.defrag()
        # An unbounded pass over this geometry always converges: every
        # function ends packed and the free space is one contiguous run.
        assert coprocessor.defragmenter.fragmentation() == 0.0


@pytest.fixture
def checked_ticks(monkeypatch):
    """Every ``Rebalancer.plan`` call also runs :class:`ReferenceRebalancer`
    on a copy of the planner's ``_last_ordered`` first, and requires the same
    orders and the same ``_last_ordered`` after.  Returns the list of each
    tick's orders."""
    shipped = Rebalancer.plan
    ticks = []

    def plan(self, fleet):
        reference = ReferenceRebalancer(self.min_queue_skew, self.min_frame_skew, self.cooldown_ns)
        reference._last_ordered = dict(self._last_ordered)
        expected = reference.plan(fleet)
        orders = shipped(self, fleet)
        assert orders == expected
        assert self._last_ordered == reference._last_ordered
        ticks.append(orders)
        return orders

    monkeypatch.setattr(Rebalancer, "plan", plan)
    return ticks


class TestPlanAgainstReference:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_the_control_plane_fleet_plans_as_the_reference(
        self, small_bank, control_plane_fleet, checked_ticks, seed
    ):
        fleet, trace = control_plane_fleet(small_bank, seed)
        fleet.run(trace)
        assert len(checked_ticks) > 100
        assert any(checked_ticks), "no tick ordered a migration"

    def test_an_e11_skewed_fleet_plans_as_the_reference(self, default_bank, checked_ticks):
        """E11's heaviest cell: skew 2.0, fragmented receivers, migrate and
        defrag."""
        _, stats = run_cell(default_bank, build_trace(default_bank, 2.0), "migrate+defrag", 2)
        assert stats.migrations_completed > 0
        assert sum(len(orders) for orders in checked_ticks) == stats.migration_orders

    @given(
        residency=st.tuples(
            st.lists(st.sampled_from(_NAMES), min_size=2, max_size=4, unique=True),
            st.lists(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True), min_size=1, max_size=3),
        ).map(lambda drawn: [drawn[0]] + drawn[1]),
        outstanding=st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
        down=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        skews=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
        migrating=st.sets(st.sampled_from(_NAMES), max_size=2),
        cooling=st.sets(st.sampled_from(_NAMES), max_size=2),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_fleet_states_plan_as_the_reference(
        self, residency, outstanding, down, skews, migrating, cooling
    ):
        """One tick on drawn state: 8-frame cards (so a destination's free
        frames meet a function's need exactly), card 0 loaded with two or
        more functions, the others with up to two, drawn queue lengths, skew
        thresholds, a dead card, and functions mid-migration or cooling
        down."""
        fleet = build_fleet(
            cards=len(residency),
            config=SMALL_CONFIG.with_overrides(fabric_columns=1),
            bank=_BANK,
            rebalance_period_ns=40_000,
            rebalance_min_queue_skew=skews[0],
            rebalance_min_frame_skew=skews[1],
        )
        for card, names, queued in zip(fleet.cards, residency, outstanding):
            _apply_history(card.driver, [(_NAMES.index(name), False) for name in names])
            card.outstanding = queued
        if down is not None and down < len(fleet.cards):
            fleet.cards[down].health = "down"
        fleet.migrating.update(migrating)
        shipped = fleet.rebalancer
        shipped._last_ordered = {name: fleet.clock.now for name in cooling}
        reference = ReferenceRebalancer(shipped.min_queue_skew, shipped.min_frame_skew, shipped.cooldown_ns)
        reference._last_ordered = dict(shipped._last_ordered)
        assert shipped.plan(fleet) == reference.plan(fleet)
        assert shipped._last_ordered == reference._last_ordered


_DEVICE = build_coprocessor(config=SMALL_CONFIG, bank=_BANK).device


@st.composite
def _tables(draw):
    """A fragmented replacement table on the 64-frame ``SMALL_CONFIG``
    fabric: up to eight functions, each a contiguous run when one is free at
    a drawn start, else frames scattered in a drawn order."""
    frames = _DEVICE.geometry.all_frames()
    free = list(draw(st.permutations(range(len(frames)))))
    minios = MiniOs(_DEVICE.geometry)
    for number in range(draw(st.integers(min_value=0, max_value=8))):
        size = draw(st.integers(min_value=1, max_value=8))
        if len(free) < size:
            break
        start = draw(st.integers(min_value=0, max_value=len(frames) - size))
        run = list(range(start, start + size))
        if draw(st.booleans()) and set(run) <= set(free):
            chosen = run
        else:
            chosen = free[:size]
        free = [index for index in free if index not in chosen]
        minios.table.insert(f"f{number}", FrameRegion.from_addresses(frames[i] for i in chosen), number)
    return minios


class TestPackingAgainstReference:
    @given(minios=_tables())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_the_packing_plan_is_the_reference_plan(self, minios):
        defragmenter = Defragmenter(minios, _DEVICE)
        shipped = defragmenter._packed_targets()
        reference = reference_packed_targets(defragmenter)
        assert [(entry.name, target) for entry, target in shipped] == [
            (entry.name, target) for entry, target in reference
        ]
        assert all(a is b for (a, _), (b, _) in zip(shipped, reference))
