"""Unit coverage for the fault-injection / scrub / repair subsystem.

Frame check words, upset injection, golden images, port faults, the fault
spec/injector, the scrubber's detect-and-repair loop and the SCRUB command
threading host → PCI → card → mini-OS service.
"""

import pytest

from repro.bitstream.crc import crc32
from repro.core.builder import build_coprocessor, build_host_driver
from repro.core.config import SMALL_CONFIG
from repro.core.exceptions import CoprocessorError
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FrameHazardDetector,
    GoldenImageStore,
)
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.errors import ConfigurationError
from repro.fpga.frame import Frame
from repro.fpga.geometry import TEST_GEOMETRY
from repro.functions.bank import build_small_bank
from repro.sim.rand import SeededRandom


def small_driver():
    return build_host_driver(config=SMALL_CONFIG, bank=build_small_bank())


def protected_coprocessor():
    copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
    copro.enable_fault_protection()
    return copro


class TestFrameCheckWord:
    def test_fresh_and_cleared_frames_pass_crc(self):
        frame = Frame(TEST_GEOMETRY, TEST_GEOMETRY.all_frames()[0])
        assert frame.crc_ok
        frame.clear()
        assert frame.crc_ok
        assert frame.stored_crc == crc32(bytes(frame.config_byte_length))

    def test_legitimate_write_refreshes_check_word(self):
        frame = Frame(TEST_GEOMETRY, TEST_GEOMETRY.all_frames()[0])
        payload = bytes(range(frame.config_byte_length % 256)).ljust(
            frame.config_byte_length, b"\x00"
        )
        # Canonicalise through a scratch frame so the write round-trips.
        frame.load_config_bytes(payload)
        canonical = frame.to_config_bytes()
        frame.load_config_bytes(canonical)
        assert frame.crc_ok
        assert frame.stored_crc == crc32(canonical)

    def test_upset_breaks_crc_and_clear_restores_it(self):
        frame = Frame(TEST_GEOMETRY, TEST_GEOMETRY.all_frames()[0])
        # Flip the LSB of the first LUT byte — a bit the parser keeps.
        changed = frame.inject_upset(0)
        assert changed
        assert not frame.crc_ok
        frame.clear()
        assert frame.crc_ok

    def test_upset_rejects_nonpositive_burst(self):
        frame = Frame(TEST_GEOMETRY, TEST_GEOMETRY.all_frames()[0])
        with pytest.raises(ValueError):
            frame.inject_upset(0, bits=0)

    def test_double_flip_is_byte_identical_but_interim_detected(self):
        frame = Frame(TEST_GEOMETRY, TEST_GEOMETRY.all_frames()[0])
        before = frame.to_config_bytes()
        frame.inject_upset(3)
        assert not frame.crc_ok
        frame.inject_upset(3)  # flip back
        assert frame.to_config_bytes() == before
        assert frame.crc_ok


class TestConfigurationMemoryFaultApi:
    def test_corrupt_bit_flags_frame_crc(self):
        memory = ConfigurationMemory(TEST_GEOMETRY)
        address = TEST_GEOMETRY.all_frames()[2]
        assert memory.frame_crc_ok(address)
        assert memory.corrupt_bit(address, 0)
        assert not memory.frame_crc_ok(address)

    def test_configured_frames_tracks_ownership(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        memory = copro.device.memory
        assert memory.configured_frames() == []
        copro.preload("crc32")
        owned = memory.configured_frames()
        assert owned and all(memory.owner_of(a) == "crc32" for a in owned)


class TestGoldenImageStore:
    def test_capture_release_and_default_zeros(self):
        store = GoldenImageStore(8)
        frames = TEST_GEOMETRY.all_frames()[:2]
        store.capture(frames, [b"\x01" * 8, b"\x02" * 8])
        assert store.payload_for(frames[0]) == b"\x01" * 8
        assert len(store) == 2
        store.release(frames)
        assert store.payload_for(frames[0]) == bytes(8)
        assert len(store) == 0

    def test_capture_validates_shapes(self):
        store = GoldenImageStore(8)
        frames = TEST_GEOMETRY.all_frames()[:2]
        with pytest.raises(ValueError):
            store.capture(frames, [b"\x01" * 8])
        with pytest.raises(ValueError):
            store.capture(frames[:1], [b"\x01" * 4])

    def test_device_feeds_golden_on_configure_and_unload(self):
        copro = protected_coprocessor()
        golden = copro.device.golden
        copro.preload("crc32")
        region = copro.device.region_of("crc32")
        assert all(address in golden for address in region)
        assert [golden.payload_for(a) for a in region] == copro.device.readback("crc32")
        copro.evict("crc32")
        assert all(address not in golden for address in region)


class TestConfigurationPortFaults:
    def test_wedged_port_refuses_sessions_until_unwedged(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        port = copro.device.port
        port.wedge()
        assert port.stats.wedge_events == 1
        with pytest.raises(ConfigurationError):
            copro.preload("crc32")
        port.unwedge()
        copro.preload("crc32")
        assert copro.is_loaded("crc32")

    def test_stall_charges_time_on_next_session(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        port = copro.device.port
        port.stall_for(5_000.0)
        before = copro.clock.now
        copro.preload("crc32")
        assert port.stats.stall_events == 1
        assert port.stats.stalled_time_ns == 5_000.0
        assert copro.clock.now - before >= 5_000.0
        # Consumed: a second preload pays no further stall.
        assert port._pending_stall_ns == 0.0

    def test_stall_rejects_negative_duration(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        with pytest.raises(ValueError):
            copro.device.port.stall_for(-1.0)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(process="gamma-ray")
        with pytest.raises(ValueError):
            FaultSpec(upset_rate_per_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(burst_bits=0)
        with pytest.raises(ValueError):
            FaultSpec(card_kill_times_ns=((-1.0, 0),))

    def test_mean_gaps(self):
        assert FaultSpec().mean_upset_gap_ns == float("inf")
        assert FaultSpec(upset_rate_per_s=1e3).mean_upset_gap_ns == 1e6
        spec = FaultSpec(port_fault_rate_per_s=2e3)
        assert spec.mean_port_fault_gap_ns == 5e5

    def test_with_overrides(self):
        spec = FaultSpec().with_overrides(upset_rate_per_s=7.0)
        assert spec.upset_rate_per_s == 7.0


class TestFaultInjectorManual:
    def test_targeted_process_hits_only_configured_frames(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        copro.preload("crc32")
        memory = copro.device.memory
        owned = set(memory.configured_frames())
        injector = FaultInjector(FaultSpec(process="targeted"))
        for _ in range(30):
            address, _ = injector.upset_memory(memory)
            assert address in owned

    def test_burst_flips_multiple_bits(self):
        memory = ConfigurationMemory(TEST_GEOMETRY)
        injector = FaultInjector(FaultSpec(process="burst", burst_bits=6))
        injector.upset_memory(memory)
        assert injector.bits_flipped == 6
        assert injector.upsets == 1

    def test_counters_split_effective_and_masked(self):
        memory = ConfigurationMemory(TEST_GEOMETRY)
        injector = FaultInjector(FaultSpec(process="poisson"))
        for _ in range(64):
            injector.upset_memory(memory)
        assert injector.upsets == 64
        assert injector.effective_upsets + injector.masked_upsets == 64

    def test_injection_is_seed_deterministic(self):
        def run(seed):
            memory = ConfigurationMemory(TEST_GEOMETRY)
            injector = FaultInjector(FaultSpec(process="poisson", seed=seed))
            return [injector.upset_memory(memory)[0] for _ in range(10)]

        assert run(1) == run(1)
        assert run(1) != run(2)


class TestScrubber:
    def test_detects_and_repairs_to_golden(self):
        copro = protected_coprocessor()
        copro.preload("crc32")
        memory = copro.device.memory
        region = list(copro.device.region_of("crc32"))
        golden_bytes = [copro.device.golden.payload_for(a) for a in region]
        for address in region:
            memory.corrupt_bit(address, 1)
        corrupted = [a for a in region if not memory.frame_crc_ok(a)]
        assert corrupted
        result = copro.scrubber.scrub_pass()
        assert result.detected == len(corrupted)
        assert result.corrected == len(corrupted)
        assert result.uncorrectable == 0
        assert [memory.read_frame(a) for a in region] == golden_bytes
        assert all(memory.frame_crc_ok(a) for a in region)

    def test_scrub_charges_card_time(self):
        copro = protected_coprocessor()
        before = copro.clock.now
        result = copro.scrubber.scrub_pass()
        assert result.elapsed_ns > 0
        assert copro.clock.now - before == result.elapsed_ns

    def test_partial_passes_cover_device_with_rotating_cursor(self):
        copro = protected_coprocessor()
        total = copro.geometry.frame_count
        window = 7
        checked = 0
        passes = 0
        while checked < total:
            checked += copro.scrubber.scrub_pass(max_frames=window).frames_checked
            passes += 1
        assert passes == -(-total // window)
        assert copro.scrubber.stats.frames_checked == checked

    def test_repairs_free_frames_to_zeros(self):
        copro = protected_coprocessor()
        memory = copro.device.memory
        address = memory.unowned_frames()[0]
        memory.corrupt_bit(address, 0)
        assert not memory.frame_crc_ok(address)
        copro.scrubber.scrub_pass()
        assert memory.read_frame(address) == bytes(copro.geometry.frame_config_bytes)


class TestScrubCommandPath:
    def test_host_scrub_command_round_trip(self):
        driver = small_driver()
        copro = driver.coprocessor
        copro.enable_fault_protection()
        driver.preload("crc32")
        memory = copro.device.memory
        for address in copro.device.region_of("crc32"):
            memory.corrupt_bit(address, 1)
        broken = sum(
            1 for a in copro.geometry.all_frames() if not memory.frame_crc_ok(a)
        )
        assert broken > 0
        corrected = driver.scrub_card()
        assert corrected == broken
        assert all(memory.frame_crc_ok(a) for a in copro.geometry.all_frames())

    def test_scrub_without_protection_is_a_bad_command(self):
        driver = small_driver()
        with pytest.raises(CoprocessorError):
            driver.scrub_card()

    def test_preload_on_wedged_port_reports_config_failed(self):
        driver = small_driver()
        driver.coprocessor.device.port.wedge()
        with pytest.raises(CoprocessorError):
            driver.preload("crc32")

    def test_enable_fault_protection_is_idempotent_and_snapshots_live_state(self):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=build_small_bank())
        copro.preload("crc32")
        scrubber = copro.enable_fault_protection()
        assert copro.enable_fault_protection() is scrubber
        region = copro.device.region_of("crc32")
        golden = copro.device.golden
        assert [golden.payload_for(a) for a in region] == copro.device.readback("crc32")


class TestHazardDetector:
    def test_counts_executions_over_corrupted_frames(self):
        copro = protected_coprocessor()
        copro.preload("crc32")
        detector = copro.device.hazard_detector
        copro.execute("crc32", bytes(4))
        assert detector.checks == 1
        assert detector.hazard_executions == 0
        region = list(copro.device.region_of("crc32"))
        copro.device.memory.corrupt_bit(region[0], 1)
        copro.execute("crc32", bytes(4))
        assert detector.hazard_executions == 1
        assert detector.per_function["crc32"] == 1
        assert detector.last_was_hazard
        # Scrub, then the hazard stops.
        copro.scrubber.scrub_pass()
        copro.execute("crc32", bytes(4))
        assert detector.hazard_executions == 1
        assert detector.checks == 3

    def test_reset_clears_counters(self):
        detector = FrameHazardDetector(ConfigurationMemory(TEST_GEOMETRY))
        detector.checks = 5
        detector.hazard_executions = 2
        detector.reset()
        assert detector.checks == 0 and detector.hazard_executions == 0


class TestRandomisedRepair:
    def test_random_upsets_always_repaired_byte_identically(self):
        copro = protected_coprocessor()
        copro.preload("crc32")
        copro.preload("parity32")
        memory = copro.device.memory
        golden = copro.device.golden
        rng = SeededRandom(77)
        frames = copro.geometry.all_frames()
        for _ in range(50):
            address = frames[rng.integer(0, len(frames) - 1)]
            memory.corrupt_bit(
                address,
                rng.integer(0, copro.geometry.frame_config_bytes * 8 - 1),
                bits=rng.integer(1, 4),
            )
            copro.scrubber.scrub_pass()
            for check in frames:
                assert memory.read_frame(check) == golden.payload_for(check)
                assert memory.frame_crc_ok(check)
