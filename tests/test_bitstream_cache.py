"""Byte-identity of the bitstream generation/compression caches.

Cache hits must return exactly the bytes a cold render/compression would
produce, and the reconfiguration-path decode memo must not perturb simulated
timing.
"""

from repro.bitstream.codecs import get_codec
from repro.bitstream.window import WindowedCompressor
from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.fpga import bitgen
from repro.fpga.bitgen import BitstreamCache, BitstreamGenerator, bitstream_cache
from repro.fpga.geometry import TEST_GEOMETRY
from repro.fpga.placer import Placer
from repro.functions.bank import build_small_bank
from repro.functions.netgen import build_adder_netlist


def generator_with_own_cache():
    """A generator on a fresh cache instead of the process-wide one."""
    generator = BitstreamGenerator(TEST_GEOMETRY)
    generator.cache = BitstreamCache()
    return generator


class TestRenderCache:
    def test_cached_render_is_byte_identical_to_cold_render(self):
        netlist = build_adder_netlist(8)
        placer = Placer(TEST_GEOMETRY)
        frames = TEST_GEOMETRY.frames_needed_for_luts(netlist.lut_count)
        placement = placer.place(netlist, TEST_GEOMETRY.all_frames(), frames)
        cold = generator_with_own_cache()
        cold_payloads = cold.render_frames(netlist, placement)
        warm = generator_with_own_cache()
        warm_cache = warm.cache
        first = warm.render_frames(netlist, placement)
        second = warm.render_frames(netlist, placement)
        assert first == cold_payloads
        assert second == cold_payloads
        assert warm_cache.hits == 1 and warm_cache.misses == 1

    def test_synthetic_frames_cached_and_identical(self):
        generator = generator_with_own_cache()
        cache = generator.cache
        first = generator.synthetic_frames(frame_count=3, lut_count=40, seed=9)
        second = generator.synthetic_frames(frame_count=3, lut_count=40, seed=9)
        different_seed = generator.synthetic_frames(frame_count=3, lut_count=40, seed=10)
        assert first == second
        assert first != different_seed
        assert cache.hits == 1

    def test_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(bitgen, "MAX_ENTRIES", 2)
        cache = BitstreamCache()
        for index in range(5):
            cache.lookup(("key", index), lambda: index)
        assert cache.stats()["entries"] == 2


class TestDownloadAndReconfigureCaching:
    def test_rom_images_identical_with_and_without_cache(self, monkeypatch):
        config = SMALL_CONFIG.with_overrides(seed=3)
        monkeypatch.setattr(bitgen, "_CACHE", BitstreamCache())  # the cold build fills an empty cache
        cold = build_coprocessor(config=config, bank=build_small_bank())
        warm = build_coprocessor(config=config, bank=build_small_bank())
        for name in cold.bank.names():
            assert cold.rom.record_for(name) == warm.rom.record_for(name)
            cold_blob = cold.rom.read_bitstream(name)
            warm_blob = warm.rom.read_bitstream(name)
            assert cold_blob == warm_blob
        assert bitstream_cache().hits > 0

    def test_compressed_image_cache_matches_fresh_compressor(self):
        config = SMALL_CONFIG.with_overrides(seed=3)
        copro = build_coprocessor(config=config, bank=build_small_bank())
        codec = get_codec(config.codec_name)
        compressor = WindowedCompressor(codec)
        for name in copro.bank.names():
            blob = copro.rom.read_bitstream(name)
            record = copro.rom.record_for(name)
            # Decompress the stored image and recompress from scratch: the
            # bytes in the ROM must equal a cache-free compression.
            from repro.bitstream.window import CompressedImage, WindowedDecompressor

            image = CompressedImage.from_bytes(blob)
            raw = WindowedDecompressor(image).decompress_all()
            assert compressor.compress(raw).to_bytes() == blob
            assert record.uncompressed_size == len(raw)

    def test_repeat_reconfiguration_timing_unchanged_by_decode_memo(self):
        config = SMALL_CONFIG.with_overrides(seed=3)
        copro = build_coprocessor(config=config, bank=build_small_bank())
        name = copro.bank.names()[0]
        first = copro.preload(name)
        copro.evict(name)
        second = copro.preload(name)  # decode memo hit
        # Whole nanoseconds: the replayed per-window advances land exactly.
        assert second.reconfiguration == first.reconfiguration
        assert second.reconfig_time_ns == first.reconfig_time_ns
