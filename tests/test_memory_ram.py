"""Tests for the local RAM: its capacity check and its access time."""

import pytest

from repro.core.builder import build_coprocessor
from repro.memory.errors import RamCapacityError
from repro.memory.ram import LocalRam
from repro.memory.timing import RAM_TIMING


class TestCapacity:
    def test_exhaustion_rejected(self):
        # The output buffer sits beside the input: 100 + 64 bytes do not fit 128.
        ram = LocalRam(128)
        ram.access_ns(100)
        assert ram.access_ns(28, beside=100) == RAM_TIMING.transfer_time_ns(28)
        with pytest.raises(RamCapacityError):
            ram.access_ns(64, beside=100)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            LocalRam(0)
        with pytest.raises(ValueError):
            LocalRam(-64)


class TestTimedAccess:
    def test_out_of_bounds_rejected(self):
        ram = LocalRam(8)
        assert ram.access_ns(8) == RAM_TIMING.transfer_time_ns(8)
        with pytest.raises(RamCapacityError):
            ram.access_ns(9)
        # An empty buffer still takes a byte.
        with pytest.raises(RamCapacityError):
            ram.access_ns(0, beside=8)

    def test_clock_advances_with_transfer_size(self, small_config, small_bank):
        copro = build_coprocessor(config=small_config, bank=small_bank)
        copro.preload("crc32")
        staged = []
        for size in (0, 1024, 16 * 1024):
            result = copro.execute("crc32", bytes(size))
            staged.append(result.stage_input_time_ns)
        assert staged == [0, RAM_TIMING.transfer_time_ns(1024), RAM_TIMING.transfer_time_ns(16 * 1024)]
        assert staged[2] - staged[1] > staged[1] > 0
