"""Tests for function records and the two-ended ROM layout."""

import pytest

from repro.memory.errors import RomFullError, RomLookupError
from repro.memory.records import FunctionRecord, RecordTable
from repro.memory.rom import ConfigurationRom
from repro.memory.timing import ROM_TIMING, MemoryTiming
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


def _record(name="aes128", function_id=1, start=0, size=128):
    return FunctionRecord(
        function_id=function_id,
        name=name,
        start_address=start,
        compressed_size=size,
        uncompressed_size=size * 3,
        input_bytes=16,
        output_bytes=16,
        frame_count=4,
        codec_name="rle",
    )


class TestFunctionRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            _record(name="x" * 17)
        with pytest.raises(ValueError):
            FunctionRecord(1, "ok", 0, 10, 10, 1, 1, 0, "rle")
        with pytest.raises(ValueError):
            FunctionRecord(1, "ok", -1, 10, 10, 1, 1, 1, "rle")
        with pytest.raises(ValueError):
            FunctionRecord(1, "ok", 0, 10, 10, 1, 1, 1, "a-very-long-codec-name")


class TestRecordTable:
    def test_add_and_lookup(self):
        table = RecordTable()
        table.add(_record("aes128", 1))
        table.add(_record("des", 2, start=128))
        assert table.by_name("des").function_id == 2
        assert [record.name for record in table._records] == ["aes128", "des"]

    def test_duplicates_rejected(self):
        table = RecordTable()
        table.add(_record("aes128", 1))
        with pytest.raises(ValueError):
            table.add(_record("aes128", 9))
        with pytest.raises(ValueError):
            table.add(_record("other", 1))

    def test_missing_lookup_raises(self):
        table = RecordTable()
        with pytest.raises(KeyError):
            table.by_name("nope")


class TestConfigurationRom:
    def _rom(self, capacity=64 * 1024):
        return ConfigurationRom(capacity, clock=Clock())

    def test_download_populates_both_ends(self):
        rom = self._rom()
        image = b"\xAB" * 1000
        record = rom.download(1, "aes128", image, 3000, 16, 16, 4, "rle")
        assert record.start_address == 0
        assert rom.bitstream_bytes_used == 1000
        assert rom.record_bytes_used == FunctionRecord.packed_size()
        assert rom.free_bytes == rom.capacity_bytes - 1000 - FunctionRecord.packed_size()
        assert 0.0 < rom.utilisation < 1.0

    def test_sequential_downloads_stack(self):
        rom = self._rom()
        rom.download(1, "a", b"\x01" * 100, 300, 1, 1, 1, "rle")
        record = rom.download(2, "b", b"\x02" * 50, 150, 1, 1, 1, "rle")
        assert record.start_address == 100
        assert len(rom.record_table) == 2

    def test_collision_between_areas_rejected(self):
        rom = self._rom(capacity=1024)
        with pytest.raises(RomFullError):
            rom.download(1, "big", b"\x00" * 1024, 1, 1, 1, 1, "rle")
        # A bit-stream that fits the data area but not data + record also fails.
        with pytest.raises(RomFullError):
            rom.download(1, "big", b"\x00" * (1024 - 10), 1, 1, 1, 1, "rle")

    def test_read_returns_stored_bytes_and_advances_clock(self):
        rom = self._rom()
        rom.download(1, "a", bytes(range(100)), 300, 1, 1, 1, "rle")
        before = rom.clock.now
        assert rom.read(0, 100) == bytes(range(100))
        assert rom.clock.now > before
        assert rom.total_bytes_read == 100

    def test_read_out_of_range_rejected(self):
        rom = self._rom(capacity=256)
        with pytest.raises(ValueError):
            rom.read(200, 100)

    def test_read_bitstream_chunked_matches_whole(self):
        rom = self._rom()
        image = bytes((index * 13) % 256 for index in range(1000))
        rom.download(5, "fir16", image, 2000, 256, 256, 3, "lz77")
        whole = rom.read_bitstream("fir16")
        one_burst = rom.clock.now
        chunked = rom.read_bitstream("fir16", chunk_bytes=128)
        assert whole == image and chunked == image
        assert rom.total_reads == 1 + 8
        # Each burst pays its own setup latency: eight bursts of <= 128 bytes.
        assert rom.clock.now - one_burst == 7 * ROM_TIMING.transfer_time_ns(128) + ROM_TIMING.transfer_time_ns(104)
        with pytest.raises(ValueError):
            rom.read_bitstream("fir16", chunk_bytes=0)

    def test_a_chunked_read_traces_each_burst_at_its_running_sum(self):
        rom = ConfigurationRom(64 * 1024, clock=Clock(), trace=TraceRecorder())
        rom.download(5, "fir16", bytes(300), 600, 1, 1, 1, "lz77")
        rom.clock.advance(7)
        rom.read_bitstream("fir16", chunk_bytes=128)
        bursts = [ROM_TIMING.transfer_time_ns(length) for length in (128, 128, 44)]
        spans = [(event.start_ns, event.end_ns, event.attributes["length"]) for event in rom.trace]
        assert spans == [
            (7, 7 + bursts[0], 128),
            (7 + bursts[0], 7 + bursts[0] + bursts[1], 128),
            (7 + bursts[0] + bursts[1], 7 + sum(bursts), 44),
        ]
        assert rom.clock.now == 7 + sum(bursts)

    def test_unknown_function_lookup(self):
        rom = self._rom()
        with pytest.raises(RomLookupError):
            rom.record_for("ghost")

    def test_layout_summary(self):
        rom = self._rom()
        rom.download(1, "a", b"\x00" * 64, 128, 1, 1, 1, "rle")
        summary = rom.layout_summary()
        assert summary["functions"] == 1
        assert summary["bitstream_bytes"] == 64
        assert summary["capacity_bytes"] == rom.capacity_bytes

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConfigurationRom(0)

    def test_timing_model_validation(self):
        with pytest.raises(ValueError):
            MemoryTiming(access_latency_ns=-1.0)
        with pytest.raises(ValueError):
            MemoryTiming(bandwidth_bytes_per_ns=0.0)
        timing = MemoryTiming(access_latency_ns=10.0, bandwidth_bytes_per_ns=0.5)
        assert timing.transfer_time_ns(0) == 0.0
        assert timing.transfer_time_ns(100) == pytest.approx(10.0 + 200.0)
        with pytest.raises(ValueError):
            timing.transfer_time_ns(-1)
