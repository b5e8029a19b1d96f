"""Tests for the local RAM allocator and timed access."""

import pytest

from repro.memory.errors import RamAllocationError
from repro.memory.ram import LocalRam
from repro.sim.clock import Clock


class TestAllocator:
    def test_allocate_and_free(self):
        ram = LocalRam(1024)
        allocation = ram.allocate("input", 256)
        assert allocation.address == 0 and allocation.length == 256
        assert ram.bytes_allocated == 256
        ram.free("input")
        assert ram.bytes_allocated == 0

    def test_allocations_do_not_overlap(self):
        ram = LocalRam(1024)
        first = ram.allocate("a", 100)
        second = ram.allocate("b", 200)
        assert second.address >= first.end
        assert ram.bytes_free == 1024 - 300

    def test_first_fit_reuses_gaps(self):
        ram = LocalRam(1024)
        ram.allocate("a", 100)
        ram.allocate("b", 100)
        ram.allocate("c", 100)
        ram.free("b")
        gap_fill = ram.allocate("d", 80)
        assert gap_fill.address == 100

    def test_duplicate_label_rejected(self):
        ram = LocalRam(256)
        ram.allocate("x", 10)
        with pytest.raises(RamAllocationError):
            ram.allocate("x", 10)

    def test_exhaustion_rejected(self):
        ram = LocalRam(128)
        ram.allocate("a", 100)
        with pytest.raises(RamAllocationError):
            ram.allocate("b", 64)

    def test_free_unknown_label_rejected(self):
        with pytest.raises(RamAllocationError):
            LocalRam(64).free("ghost")

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            LocalRam(0)
        with pytest.raises(ValueError):
            LocalRam(64).allocate("x", 0)

    def test_free_all_returns_every_byte(self):
        ram = LocalRam(1024)
        ram.allocate("a", 400)
        ram.allocate("b", 300)
        assert ram.bytes_allocated == 700
        ram.free("a")
        ram.free("b")
        assert ram.bytes_allocated == 0


class TestTimedAccess:
    def test_write_then_read_round_trips(self):
        ram = LocalRam(1024, clock=Clock())
        allocation = ram.allocate("buffer", 64)
        elapsed = ram.write(allocation, b"hello world")
        assert elapsed > 0
        assert ram.read(allocation, 11) == b"hello world"

    def test_offsets(self):
        ram = LocalRam(1024)
        allocation = ram.allocate("buffer", 16)
        ram.write(allocation, b"abcd", offset=4)
        assert ram.read(allocation, 4, offset=4) == b"abcd"

    def test_out_of_bounds_rejected(self):
        ram = LocalRam(1024)
        allocation = ram.allocate("buffer", 8)
        with pytest.raises(ValueError):
            ram.write(allocation, b"123456789")
        with pytest.raises(ValueError):
            ram.read(allocation, 9)
        with pytest.raises(ValueError):
            ram.read(allocation, 4, offset=6)

    def test_clock_advances_with_transfer_size(self):
        clock = Clock()
        ram = LocalRam(64 * 1024, clock=clock)
        allocation = ram.allocate("buffer", 32 * 1024)
        ram.write(allocation, b"\x00" * 1024)
        small = clock.now
        ram.write(allocation, b"\x00" * 16 * 1024)
        assert clock.now - small > small
