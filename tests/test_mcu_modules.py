"""Tests for the configuration module, the data modules and the command codec."""

import pytest

from repro.bitstream.codecs import get_codec
from repro.bitstream.window import WindowedCompressor
from repro.fpga.bitgen import BitstreamGenerator
from repro.fpga.device import FPGADevice
from repro.fpga.placer import Placer
from repro.functions.misc.logic import AdderFunction
from repro.mcu.commands import Command, CommandError, CommandKind
from repro.mcu.config_module import ConfigurationModule
from repro.mcu.data_modules import DataInputModule, OutputCollectionModule
from repro.memory.ram import LocalRam
from repro.memory.rom import ConfigurationRom
from repro.sim.clock import Clock


class TestCommands:
    def test_pack_unpack_round_trip(self):
        command = Command(CommandKind.EXECUTE, function_id=7, input_length=128)
        rebuilt = Command.unpack(command.pack())
        assert rebuilt == command
        assert "EXECUTE" in str(rebuilt)

    def test_unknown_opcode_rejected(self):
        data = bytearray(Command(CommandKind.EXECUTE, 1, 1).pack())
        data[0] = 0xEE
        with pytest.raises(CommandError):
            Command.unpack(bytes(data))

    def test_short_block_rejected(self):
        with pytest.raises(CommandError):
            Command.unpack(b"\x01")


def _configured_system(geometry, codec_name="rle", overlap=False):
    """ROM + device + config module with one downloaded function (adder8)."""
    clock = Clock()
    rom = ConfigurationRom(256 * 1024, clock=clock)
    device = FPGADevice(geometry, clock=clock)
    function = AdderFunction()
    netlist = function.build_netlist(geometry)
    placer = Placer(geometry)
    placement = placer.place(netlist, geometry.all_frames())
    bitstream = BitstreamGenerator(geometry).generate(
        netlist, placement, function.function_id, 2, 2
    )
    raw = bitstream.to_bytes()
    image = WindowedCompressor(get_codec(codec_name), 256).compress(raw)
    rom.download(
        function.function_id, function.name, image.to_bytes(), len(raw), 2, 2,
        bitstream.header.frame_count, codec_name,
    )
    module = ConfigurationModule(rom, device, clock, overlap_decompress=overlap)
    return clock, rom, device, module, function, placement.region


class TestConfigurationModule:
    def test_reconfigure_loads_function_and_reports_phases(self, tiny_geometry):
        clock, rom, device, module, function, region = _configured_system(tiny_geometry)
        report = module.reconfigure(function.name, region, function.executor(tiny_geometry))
        assert device.is_loaded("adder8")
        assert report.frames == len(region)
        assert report.rom_time_ns > 0
        assert report.decompress_time_ns > 0
        assert report.config_time_ns > 0
        assert report.total_time_ns >= report.config_time_ns
        assert report.total_time_ns == pytest.approx(clock.now)
        assert report.uncompressed_bytes > 0
        output, _ = device.execute("adder8", bytes([7, 8]))
        assert output[0] == 15

    def test_overlapped_total_is_not_larger(self, tiny_geometry):
        _, _, _, module_serial, function, region = _configured_system(tiny_geometry, overlap=False)
        serial = module_serial.reconfigure(function.name, region, function.executor(tiny_geometry))
        _, _, _, module_overlap, function2, region2 = _configured_system(tiny_geometry, overlap=True)
        overlapped = module_overlap.reconfigure(function2.name, region2, function2.executor(tiny_geometry))
        assert overlapped.total_time_ns <= serial.total_time_ns
        assert overlapped.overlapped

    def test_decompression_cost_scales_with_cycles_per_byte(self, tiny_geometry):
        _, _, _, cheap_module, function, region = _configured_system(tiny_geometry)
        cheap_module.decompress_cycles_per_byte = 1.0
        cheap = cheap_module.reconfigure(function.name, region, function.executor(tiny_geometry))
        _, _, _, costly_module, function2, region2 = _configured_system(tiny_geometry)
        costly_module.decompress_cycles_per_byte = 16.0
        costly = costly_module.reconfigure(function2.name, region2, function2.executor(tiny_geometry))
        assert costly.decompress_time_ns > cheap.decompress_time_ns

    def test_fetch_reads_in_chunks(self, tiny_geometry):
        _, rom, _, module, function, _ = _configured_system(tiny_geometry)
        module.rom_chunk_bytes = 64
        image, rom_time = module.fetch_compressed_image(function.name)
        assert rom_time > 0
        assert rom.total_reads > 1
        assert image.original_length > 0

    def test_invalid_construction(self, tiny_geometry):
        clock, rom, device, _, _, _ = _configured_system(tiny_geometry)
        with pytest.raises(ValueError):
            ConfigurationModule(rom, device, clock, decompress_cycles_per_byte=0)
        with pytest.raises(ValueError):
            ConfigurationModule(rom, device, clock, rom_chunk_bytes=0)


class TestDataModules:
    def test_feed_returns_exact_payload_with_padded_timing(self):
        clock = Clock()
        ram = LocalRam(4096, clock=clock)
        module = DataInputModule(ram, clock, bus_width_bytes=4)
        allocation = ram.allocate("in", 64)
        ram.write(allocation, b"0123456789")
        payload, record = module.feed(allocation, 10)
        assert payload == b"0123456789"
        assert record.payload_bytes == 10
        assert record.padded_bytes == 12  # rounded up to whole 4-byte beats
        assert record.beats == 3
        assert record.elapsed_ns > 0
        assert module.bytes_transferred == 10

    def test_collect_stores_payload(self):
        clock = Clock()
        ram = LocalRam(4096, clock=clock)
        module = OutputCollectionModule(ram, clock, bus_width_bytes=4)
        allocation = ram.allocate("out", 32)
        record = module.collect(allocation, b"result!")
        assert ram.read(allocation, 7) == b"result!"
        assert record.padded_bytes == 8
        assert record.direction == "output"

    def test_zero_length_transfers(self):
        clock = Clock()
        ram = LocalRam(1024, clock=clock)
        in_module = DataInputModule(ram, clock)
        allocation = ram.allocate("in", 8)
        payload, record = in_module.feed(allocation, 0)
        assert payload == b"" and record.beats == 0

    def test_wider_bus_is_faster(self):
        clock_narrow = Clock()
        ram_narrow = LocalRam(65536, clock=clock_narrow)
        narrow = DataInputModule(ram_narrow, clock_narrow, bus_width_bytes=1)
        allocation_narrow = ram_narrow.allocate("in", 4096)
        narrow.feed(allocation_narrow, 4096)

        clock_wide = Clock()
        ram_wide = LocalRam(65536, clock=clock_wide)
        wide = DataInputModule(ram_wide, clock_wide, bus_width_bytes=8)
        allocation_wide = ram_wide.allocate("in", 4096)
        wide.feed(allocation_wide, 4096)
        assert clock_wide.now < clock_narrow.now

    def test_invalid_bus_width(self):
        clock = Clock()
        ram = LocalRam(64, clock=clock)
        with pytest.raises(ValueError):
            DataInputModule(ram, clock, bus_width_bytes=0)
