"""Tests for windowed compression and streaming decompression.

The window is the module constant ``COMPRESSION_WINDOW_BYTES``; a case that
needs another width patches it (:func:`compress`).
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.codecs import CodecError, FrameDifferentialCodec, RunLengthCodec, get_codec
from repro.bitstream import window as window_module
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor


def compress(codec, data, window):
    """*data* compressed by *codec* in *window*-byte windows."""
    with mock.patch.object(window_module, "COMPRESSION_WINDOW_BYTES", window):
        return WindowedCompressor(codec).compress(data)


def _image(data=b"\x00" * 4000, window=256, codec=None):
    return compress(codec or RunLengthCodec(), data, window), data


class TestWindowedCompressor:
    def test_window_count_and_lengths(self):
        image, data = _image(b"\x07" * 1000, window=256)
        assert image.window_count == 4
        assert image.original_length == 1000
        assert image.window_bytes == 256

    def test_empty_input(self):
        image, _ = _image(b"", window=128)
        assert image.window_count == 0
        assert WindowedDecompressor(image).decompress_all() == b""

    def test_compression_ratio_reported(self):
        image, data = _image(b"\x00" * 8000, window=512)
        assert image.compression_ratio > 4.0
        assert image.stored_length < len(data)


class TestWindowedDecompressor:
    def test_streaming_matches_original(self):
        data = bytes((index * 7) % 251 for index in range(3000))
        image, _ = _image(data, window=512)
        decompressor = WindowedDecompressor(image)
        windows = list(decompressor.windows())
        assert b"".join(windows) == data
        assert all(len(window) <= 512 for window in windows)

    def test_context_dependent_codec_streams_correctly(self):
        frame = bytes([3, 1, 4, 1, 5, 9, 2, 6] * 128)  # one FRAME_SIZE frame
        data = frame * 10
        codec = FrameDifferentialCodec()
        image = compress(codec, data, len(frame))
        assert WindowedDecompressor(image, codec).decompress_all() == data

    def test_codec_mismatch_rejected(self):
        image, _ = _image()
        with pytest.raises(CodecError):
            WindowedDecompressor(image, get_codec("lz77"))

    @given(data=st.binary(max_size=2000), window=st.integers(min_value=16, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, data, window):
        image = compress(RunLengthCodec(), data, window)
        assert WindowedDecompressor(image).decompress_all() == data


class TestCompressedImageSerialisation:
    def test_round_trip(self):
        image, _ = _image(bytes(range(256)) * 8, window=128)
        rebuilt = CompressedImage.from_bytes(image.to_bytes())
        assert rebuilt.codec_name == image.codec_name
        assert rebuilt.windows == image.windows
        assert rebuilt.original_length == image.original_length
        assert rebuilt.window_bytes == image.window_bytes

    def test_corruption_detected(self):
        image, _ = _image(bytes(range(256)) * 8, window=128)
        data = bytearray(image.to_bytes())
        data[-3] ^= 0xFF
        with pytest.raises(CodecError):
            CompressedImage.from_bytes(bytes(data))

    def test_truncation_detected(self):
        image, _ = _image()
        data = image.to_bytes()
        with pytest.raises(CodecError):
            CompressedImage.from_bytes(data[:-4])

    def test_bad_magic_detected(self):
        image, _ = _image()
        data = bytearray(image.to_bytes())
        data[0:4] = b"NOPE"
        with pytest.raises(CodecError):
            CompressedImage.from_bytes(bytes(data))

    def test_stored_length_matches_serialisation(self):
        image, _ = _image(bytes(range(100)) * 10, window=200)
        assert image.stored_length == len(image.to_bytes())
