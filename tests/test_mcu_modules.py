"""Tests for the configuration module, the data modules' interface bus and the command opcodes."""

import pytest

from repro.bitstream.codecs import get_codec
from repro.bitstream.window import WindowedCompressor
from repro.core.builder import build_coprocessor
from repro.core.card import CoprocessorCard
from repro.core.config import CoprocessorConfig
from repro.fpga.bitgen import BitstreamGenerator
from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError
from repro.fpga.placer import Placer
from repro.functions.misc.logic import AdderFunction
from repro.mcu import config_module
from repro.mcu.commands import STATUS_BAD_COMMAND, CommandKind
from repro.mcu.config_module import ConfigurationModule
from repro.memory.rom import ConfigurationRom
from repro.memory.timing import RAM_TIMING, ROM_TIMING
from repro.sim.clock import Clock


class TestCommands:
    def test_unknown_opcode_rejected(self, small_config, small_bank):
        with pytest.raises(ValueError):
            CommandKind(0xEE)
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        function = coprocessor.bank.by_name("crc32")
        card = CoprocessorCard(coprocessor)
        assert card.command(0xEE, function.function_id, 1, b"x") == (STATUS_BAD_COMMAND, None)
        assert coprocessor.loaded_functions() == []


def _configured_system(geometry, codec_name="rle", overlap=False):
    """ROM + device + config module with one downloaded function (adder8)."""
    clock = Clock()
    rom = ConfigurationRom(256 * 1024, clock=clock)
    device = FPGADevice(geometry, clock=clock)
    function = AdderFunction()
    netlist = function.build_netlist(geometry)
    placer = Placer(geometry)
    placement = placer.place(netlist, geometry.all_frames(), function.frames_required(geometry))
    bitstream = BitstreamGenerator(geometry).generate(
        netlist, placement, function.function_id, 2, 2
    )
    raw = bitstream.to_bytes()
    image = WindowedCompressor(get_codec(codec_name)).compress(raw)
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
        # ROM fetch and decompression come on top of the port's frame writes.
        assert 0 < device.port.stats.busy_time_ns < report.total_time_ns == clock.now
        output, _ = device.execute("adder8", bytes([7, 8]))
        assert output[0] == 15

    def test_overlapped_total_is_not_larger(self, tiny_geometry):
        _, _, _, module_serial, function, region = _configured_system(tiny_geometry, overlap=False)
        serial = module_serial.reconfigure(function.name, region, function.executor(tiny_geometry))
        _, _, _, module_overlap, function2, region2 = _configured_system(tiny_geometry, overlap=True)
        overlapped = module_overlap.reconfigure(function2.name, region2, function2.executor(tiny_geometry))
        assert overlapped.total_time_ns <= serial.total_time_ns

    def test_the_clock_sees_the_overlap(self, default_bank):
        """The pipelined module's saving is simulated time: the clock, and so
        a request's ``reconfig_time_ns``, advances by the overlapped total."""

        def cold_sha1_preload(overlap):
            config = CoprocessorConfig(overlap_decompress=overlap)
            copro = build_coprocessor(config=config, bank=default_bank, functions=["sha1"])
            outcome = copro.preload("sha1")
            return outcome.reconfig_time_ns, outcome.reconfiguration.total_time_ns

        assert cold_sha1_preload(False) == (207_092, 207_092)
        assert cold_sha1_preload(True) == (136_970, 136_970)

    def test_decompression_cost_scales_with_cycles_per_byte(self, tiny_geometry, monkeypatch):
        _, _, _, cheap_module, function, region = _configured_system(tiny_geometry)
        monkeypatch.setattr(config_module, "DECOMPRESS_CYCLES_PER_BYTE", 1.0)
        cheap = cheap_module.reconfigure(function.name, region, function.executor(tiny_geometry))
        _, _, _, costly_module, function2, region2 = _configured_system(tiny_geometry)
        monkeypatch.setattr(config_module, "DECOMPRESS_CYCLES_PER_BYTE", 16.0)
        costly = costly_module.reconfigure(function2.name, region2, function2.executor(tiny_geometry))
        assert costly.total_time_ns > cheap.total_time_ns

    def test_fetch_reads_in_chunks(self, tiny_geometry, monkeypatch):
        _, rom, _, module, function, region = _configured_system(tiny_geometry)
        monkeypatch.setattr(config_module, "ROM_CHUNK_BYTES", 64)
        report = module.reconfigure(function.name, region, function.executor(tiny_geometry))
        size = rom.record_for(function.name).compressed_size
        assert rom.total_reads == -(-size // 64) > 1
        assert report.rom_time_ns > ROM_TIMING.transfer_time_ns(size)


def _transfer_blob(geometry):
    """adder8 loaded from the ROM, captured and compressed for a migration:
    ``(its module, the blob, its region)``."""
    _, _, device, module, function, region = _configured_system(geometry)
    module.reconfigure(function.name, region, function.executor(geometry))
    blob = module.compress_for_transfer(device.capture_function(function.name), "rle")
    return module, blob, region


class TestDecodeMemo:
    """The module decodes a blob once and keeps what a load needs, keyed by
    the blob; a blob that fails to decode or is refused is never kept."""

    def test_a_refused_blob_is_refused_every_time_and_never_kept(self, tiny_geometry):
        _, blob, _ = _transfer_blob(tiny_geometry)
        module = _configured_system(tiny_geometry)[3]
        for name, refused in (("adder8", blob[: len(blob) // 2]), ("crc32", blob)):
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    module.validate_transfer_blob(name, refused)
            assert refused not in module._decode_memo
        module.validate_transfer_blob("adder8", blob)
        assert blob in module._decode_memo

    def test_a_restore_after_a_rom_load_matches_a_fresh_module(self, tiny_geometry):
        loaded, blob, region = _transfer_blob(tiny_geometry)
        # The blob is the ROM's image, so the restore below hits the memo
        # the ROM load filled; the fresh module decodes it.
        assert blob in loaded._decode_memo
        fresh = _configured_system(tiny_geometry)[3]
        assert fresh._decode_memo == {}
        executor = AdderFunction().executor(tiny_geometry)
        loaded.device.unload("adder8")
        reports = [module.restore_from_blob("adder8", blob, region, executor) for module in (loaded, fresh)]
        assert reports[0] == reports[1]
        (bitstream, *times), (fresh_bitstream, *fresh_times) = loaded._decode(blob), fresh._decode(blob)
        assert bitstream.to_bytes() == fresh_bitstream.to_bytes()
        assert times == fresh_times
        assert loaded.device.readback("adder8") == fresh.device.readback("adder8")


class TestDataModules:
    """The paper's data input and output modules: the interface bus between
    the local RAM and the fabric, timed on the microcontroller clock."""

    def test_feed_returns_exact_payload_with_padded_timing(self, small_config, small_bank):
        copro = build_coprocessor(config=small_config, bank=small_bank)
        payload = b"0123456789"
        result = copro.execute("crc32", payload)
        assert result.output == small_bank.by_name("crc32").behaviour(payload)
        # Rounded up to whole 4-byte beats: 10 bytes cost what 12 do.
        mcu = copro.mcu
        assert mcu.interface_ns(10) == mcu.interface_ns(12) < mcu.interface_ns(13)
        assert result.feed_time_ns == RAM_TIMING.transfer_time_ns(10) + mcu.interface_ns(10)

    def test_zero_length_transfers(self, small_config, small_bank):
        copro = build_coprocessor(config=small_config, bank=small_bank)
        result = copro.execute("crc32", b"")
        assert result.output == small_bank.by_name("crc32").behaviour(b"")
        # An empty transfer still pays the bus setup cycles.
        mcu = copro.mcu
        assert result.feed_time_ns == mcu.interface_ns(0) < mcu.interface_ns(1)
