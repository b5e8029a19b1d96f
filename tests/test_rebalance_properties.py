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
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.core.host import build_host_system
from repro.core.exceptions import CoprocessorError
from repro.functions.bank import build_small_bank

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
    owned = geometry.frame_count - len(naive_unowned)
    assert memory.utilisation() == owned / geometry.frame_count
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
            assert source.card.is_resident(name)
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
            assert address not in source_device.golden or (
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
            assert device.memory.frames[address].is_clear

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
