"""Tests for the compression codecs (including property-based round trips)."""

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmarks import bench_e4_compression, bench_e7_rom_layout
from repro.bitstream.codecs import (
    CodecError,
    ContextLZ77Codec,
    FrameDifferentialCodec,
    GolombRiceCodec,
    HuffmanCodec,
    LZ77Codec,
    NullCodec,
    RunLengthCodec,
    available_codecs,
    get_codec,
)
from repro.bitstream.codecs import base as codec_base
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor
from repro.core.config import CoprocessorConfig
from test_bitstream_window import compress

ALL_CODECS = [
    NullCodec(),
    RunLengthCodec(),
    LZ77Codec(),
    HuffmanCodec(),
    GolombRiceCodec(),
    FrameDifferentialCodec(),
    ContextLZ77Codec(),
]

SAMPLES = [
    b"",
    b"\x00",
    b"a",
    b"\x00" * 500,
    b"abc" * 100,
    bytes(range(256)),
    bytes([0, 0, 0, 7, 0, 0, 0, 7] * 64),
    b"\x00" * 100 + bytes(range(64)) + b"\x00" * 100,
]


class TestRoundTrips:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda codec: codec.name)
    @pytest.mark.parametrize("sample", SAMPLES, ids=range(len(SAMPLES)))
    def test_round_trip_fixed_samples(self, codec, sample):
        assert codec.decompress(codec.compress(sample)) == sample

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda codec: codec.name)
    @given(data=st.binary(max_size=600))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, codec, data):
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda codec: codec.name)
    def test_windowed_round_trip_with_context(self, codec):
        previous = bytes([0x11] * 128)
        window = bytes([0x11] * 100 + [0x22] * 28)
        blob = codec.compress_window(window, previous)
        assert codec.decompress_window(blob, previous) == window


class TestCompressionQuality:
    def test_sparse_frames_shrink(self):
        sparse = b"\x00" * 900 + bytes(range(50)) + b"\x00" * 100
        for codec in (RunLengthCodec(), GolombRiceCodec(), LZ77Codec(), HuffmanCodec()):
            assert len(codec.compress(sparse)) < len(sparse), codec.name

    def test_repetitive_structure_compresses_with_lz(self):
        pattern = bytes([1, 2, 3, 4, 5, 6, 7, 8]) * 100
        assert len(LZ77Codec().compress(pattern)) < len(pattern) // 4

    def test_framediff_collapses_near_identical_frames(self):
        frame = bytes([7, 1, 0, 9] * 256)  # one FRAME_SIZE frame
        data = frame * 20
        codec = FrameDifferentialCodec()
        assert len(codec.compress(data)) < len(RunLengthCodec().compress(data))


@pytest.fixture(scope="module")
def bank_bitstreams(default_bank):
    """Every default-bank function's raw bit-stream, as E4 compresses it."""
    return bench_e4_compression.raw_bitstreams(CoprocessorConfig(seed=2005), default_bank)


def _windowed_round_trip(data, window):
    """*data* through a serialised ``lz77ctx`` image of *window*-byte windows."""
    blob = compress(ContextLZ77Codec(), data, window).to_bytes()
    return WindowedDecompressor(CompressedImage.from_bytes(blob)).decompress_all()


class TestContextLZ77:
    """``lz77ctx``: LZ77 whose matches may reach into the previous raw window."""

    @given(data=st.binary(max_size=5000), window=st.integers(min_value=1, max_value=1500))
    @settings(max_examples=40, deadline=None)
    def test_windowed_round_trip_of_random_bytes(self, data, window):
        assert _windowed_round_trip(data, window) == data

    @given(draw=st.data(), window=st.integers(min_value=7, max_value=2048))
    @settings(max_examples=30, deadline=None)
    def test_windowed_round_trip_of_every_bank_bitstream(self, bank_bitstreams, draw, window):
        data = bank_bitstreams[draw.draw(st.sampled_from(sorted(bank_bitstreams)))]
        assume(len(data) % window)
        assert _windowed_round_trip(data, window) == data

    def test_a_truncated_or_corrupted_window_raises(self, bank_bitstreams):
        image = WindowedCompressor(ContextLZ77Codec()).compress(bank_bitstreams["aes128"])
        second = image.windows[1]
        for broken in (second[:-1], second[: len(second) // 2], b"\x07" + second[1:]):
            image.windows[1] = broken
            with pytest.raises(CodecError):
                WindowedDecompressor(image).decompress_all()
        image.windows[1] = second
        blob = bytearray(image.to_bytes())
        blob[-3] ^= 0xFF
        with pytest.raises(CodecError):
            CompressedImage.from_bytes(bytes(blob))

    def test_a_back_reference_may_not_reach_before_the_previous_window(self):
        codec = ContextLZ77Codec()
        previous = bytes(range(64))

        def copy_four_from(distance):
            return bytes([0x01]) + struct.pack(">HH", distance, 4)

        assert codec.decompress_window(copy_four_from(64), previous) == previous[:4]
        with pytest.raises(CodecError):
            codec.decompress_window(copy_four_from(65), previous)
        with pytest.raises(CodecError):
            codec.decompress_window(copy_four_from(1))


class TestErrorHandling:
    def test_rle_rejects_garbage(self):
        with pytest.raises(CodecError):
            RunLengthCodec().decompress(b"\xff\x00\x01")

    def test_lz77_rejects_bad_backreference(self):
        import struct

        blob = bytes([0x01]) + struct.pack(">HH", 100, 4)
        with pytest.raises(CodecError):
            LZ77Codec().decompress(blob)

    def test_huffman_rejects_truncation(self):
        blob = HuffmanCodec().compress(b"hello world, hello world")
        with pytest.raises(CodecError):
            HuffmanCodec().decompress(blob[: len(blob) // 2])

    def test_golomb_rejects_truncation(self):
        blob = GolombRiceCodec().compress(b"\x00" * 50 + b"abc")
        with pytest.raises(CodecError):
            GolombRiceCodec().decompress(blob[:6])


class TestRegistry:
    def test_all_expected_codecs_registered(self):
        names = available_codecs()
        for expected in ("null", "rle", "lz77", "huffman", "golomb", "framediff", "lz77ctx"):
            assert expected in names

    def test_the_rom_experiment_measures_the_compression_experiments_codecs(self):
        # E7 reports the ROM size "with the best codec", a minimum over its
        # own list: only E4's whole list makes that E4's best codec.
        assert bench_e7_rom_layout.CODECS == bench_e4_compression.CODECS
        assert "lz77" in bench_e7_rom_layout.CODECS

    def test_get_codec_instantiates(self):
        assert get_codec("rle").name == "rle"

    def test_unknown_codec_raises_with_known_list(self):
        with pytest.raises(KeyError, match="rle"):
            get_codec("zstd")

    def test_register_custom_codec(self, monkeypatch):
        class ReverseCodec(NullCodec):
            name = "reverse-test"

            def compress(self, data):
                return bytes(reversed(data))

            def decompress(self, blob):
                return bytes(reversed(blob))

        # Through monkeypatch, so that the codec leaves the registry again:
        # test_miss_formula.py iterates available_codecs().
        monkeypatch.setitem(codec_base._REGISTRY, "reverse-test", ReverseCodec)
        codec = get_codec("reverse-test")
        assert codec.decompress(codec.compress(b"abc")) == b"abc"
