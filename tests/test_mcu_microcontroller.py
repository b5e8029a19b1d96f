"""Tests for the microcontroller's end-to-end request handling."""

import collections

import pytest

from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.core.host import build_host_system
from repro.fpga.errors import ConfigurationError
from repro.functions.bank import build_small_bank


def container_lengths(*roots) -> dict:
    """``{attribute path: len}`` of every list, dict, set and deque reachable
    from *roots* through attributes of ``repro`` objects."""
    lengths, seen = {}, set()

    def visit(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        fields = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                fields[slot] = getattr(obj, slot)
        for name, value in fields.items():
            if isinstance(value, (list, dict, set, collections.deque)):
                lengths[f"{path}.{name}"] = len(value)
            elif type(value).__module__.startswith("repro."):
                visit(value, f"{path}.{name}")

    for root in roots:
        visit(root, type(root).__name__)
    return lengths


@pytest.fixture
def system(small_coprocessor):
    """Expose the microcontroller of a small, downloaded co-processor."""
    return small_coprocessor.mcu, small_coprocessor


class TestEnsureLoaded:
    def test_first_load_is_a_miss_with_reconfiguration(self, system):
        mcu, copro = system
        outcome = mcu.ensure_loaded("crc32")
        assert not outcome.hit
        assert outcome.reconfiguration is not None
        assert outcome.reconfig_time_ns > 0
        assert copro.device.is_loaded("crc32")

    def test_second_load_is_a_hit(self, system):
        mcu, _ = system
        mcu.ensure_loaded("crc32")
        outcome = mcu.ensure_loaded("crc32")
        assert outcome.hit
        assert outcome.reconfiguration is None
        assert outcome.reconfig_time_ns == 0.0

    def test_minios_and_device_agree_on_residency(self, system):
        mcu, copro = system
        mcu.ensure_loaded("parity32")
        assert copro.minios.is_resident("parity32")
        assert copro.device.is_loaded("parity32")
        region = copro.device.region_of("parity32")
        assert set(copro.minios.table.entry("parity32").region) == set(region)

    def test_evict_command(self, system):
        mcu, copro = system
        mcu.ensure_loaded("crc32")
        mcu.evict("crc32")
        assert not copro.device.is_loaded("crc32")
        assert not copro.minios.is_resident("crc32")
        # Evicting something not resident is a harmless no-op.
        mcu.evict("crc32")

    def test_reset_clears_everything(self, system):
        mcu, copro = system
        mcu.ensure_loaded("crc32")
        mcu.ensure_loaded("parity32")
        mcu.reset()
        assert copro.loaded_functions() == []
        assert copro.minios.free_count == copro.geometry.frame_count


class TestHandleExecute:
    def test_output_matches_reference_behaviour(self, system):
        mcu, copro = system
        data = bytes(range(48))
        outcome = mcu.handle_execute("crc32", data)
        assert outcome.output == copro.bank.by_name("crc32").behaviour(data)

    def test_breakdown_phases_sum_to_total(self, system):
        mcu, _ = system
        outcome = mcu.handle_execute("crc32", b"some data")
        assert outcome.latency_ns == pytest.approx(sum(outcome.breakdown.values()), rel=1e-6)

    def test_hit_path_is_much_faster_than_miss_path(self, system):
        mcu, _ = system
        miss = mcu.handle_execute("parity32", bytes(4))
        hit = mcu.handle_execute("parity32", bytes(4))
        assert not miss.hit and hit.hit
        assert hit.latency_ns < miss.latency_ns / 5

    def test_empty_input_is_handled(self, system):
        mcu, copro = system
        outcome = mcu.handle_execute("crc32", b"")
        assert outcome.output == copro.bank.by_name("crc32").behaviour(b"")

    def test_unknown_function_raises(self, system):
        mcu, _ = system
        with pytest.raises(KeyError):
            mcu.handle_execute("ghost", b"")

    def test_a_card_keeps_no_per_request_history(self, small_config, small_bank):
        """Past warm-up, more requests grow no list, dict or set the card's
        MCU, configuration module or statistics hold: what the card reports
        is a return value or a counter, never a per-request log."""
        driver = build_host_system(build_coprocessor(config=small_config, bank=small_bank))
        copro = driver.coprocessor
        payloads = {
            name: bytes(range(copro.bank.by_name(name).spec.input_bytes)) for name in small_bank.names()
        }

        def requests(count):
            # Every request a full-path miss: ROM, decompress, port, execute.
            for index in range(count):
                name = small_bank.names()[index % len(payloads)]
                driver.call(name, payloads[name])
                driver.evict(name)

        requests(2 * len(payloads))
        before = container_lengths(copro.mcu, copro.config_module, copro.stats)
        requests(200)
        assert copro.mcu.requests_handled == 200 + 2 * len(payloads)
        assert container_lengths(copro.mcu, copro.config_module, copro.stats) == before


class TestEvictionUnderPressure:
    def test_working_set_larger_than_fabric_triggers_evictions(self):
        # A fabric with very few frames forces the small bank to thrash.
        config = SMALL_CONFIG.with_overrides(fabric_columns=2, fabric_rows=16, clb_rows_per_frame=4)
        copro = build_coprocessor(config=config, bank=build_small_bank())
        names = ["crc32", "parity32", "adder8", "popcount8"]
        for _ in range(3):
            for name in names:
                data = bytes(copro.bank.by_name(name).spec.input_bytes)
                result = copro.execute(name, data)
                assert result.output == copro.bank.by_name(name).behaviour(data)
        assert copro.stats.evictions > 0
        # The free frame list and the device agree after all that churn.
        owned = sum(len(frames) for frames in copro.device.memory.owners().values())
        assert owned + copro.minios.free_count == copro.geometry.frame_count

    def test_a_refused_transfer_leaves_its_victims_evicted(self, refuse_configuration):
        """``Microcontroller._load`` erases the victims' frames before it
        writes the new function, so a transfer the port refuses leaves them
        evicted; the mini OS's residency and free list and the device's owner
        map still agree (the lockstep ``check_memory_lockstep`` checks)."""
        config = SMALL_CONFIG.with_overrides(fabric_columns=2, fabric_rows=16, clb_rows_per_frame=4)
        copro = build_coprocessor(config=config, bank=build_small_bank())
        for name in ("parity32", "adder8", "popcount8"):
            copro.mcu.ensure_loaded(name)
        before = set(copro.minios.resident_functions())
        refuse_configuration(copro.device)
        with pytest.raises(ConfigurationError):
            copro.mcu.ensure_loaded("crc32")
        resident, memory = set(copro.minios.resident_functions()), copro.device.memory
        victims = before - resident
        assert victims and resident < before
        assert not any(copro.device.is_loaded(name) for name in victims | {"crc32"})
        assert set(memory.owners()) == resident
        assert copro.minios.free_frames() == memory.unowned_frames()
