"""Golden-corpus and robustness tests for the optimised codec fast paths.

The blobs in ``tests/data/golden/`` were produced by the original (per-bit /
per-byte) seed encoders.  The optimised encoders must reproduce them *byte
for byte* — compression is part of the stored-image format, so a drifting
encoder would silently invalidate every ROM image ever written — and the
optimised decoders must invert them.  ``lz77ctx`` differs from ``lz77`` only
across windows, so its blobs are whole windowed ROM images (1 024-byte
windows, as the card stores them), pinned when the codec was added.  Adversarial truncation must never
crash, hang, or mis-decode: every outcome is either a clean ``CodecError``
(or the codec-specific subset below) or a successful parse of a shorter
stream.
"""

from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.codecs import (
    CodecError,
    ContextLZ77Codec,
    FrameDifferentialCodec,
    GolombRiceCodec,
    HuffmanCodec,
    LZ77Codec,
    NullCodec,
    RunLengthCodec,
)
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor

DATA_DIR = pathlib.Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
GOLDEN_DIR = DATA_DIR / "golden"

class _WindowedImage:
    """*codec*'s serialised windowed image as one blob: what the ROM stores."""

    def __init__(self, codec):
        self.name = f"windowed_{codec.name}"
        self._codec = codec

    def compress(self, data):
        image = WindowedCompressor(self._codec).compress(data)
        return image.to_bytes()

    def decompress(self, blob):
        return WindowedDecompressor(CompressedImage.from_bytes(blob)).decompress_all()


#: Codec name -> default-constructed instance, matching the golden corpus.
CODECS = {
    "null": NullCodec(),
    "rle": RunLengthCodec(),
    "lz77": LZ77Codec(),
    "huffman": HuffmanCodec(),
    "golomb": GolombRiceCodec(),
    "framediff": FrameDifferentialCodec(),
    "lz77ctx": _WindowedImage(ContextLZ77Codec()),
}

CORPUS_NAMES = sorted(path.stem for path in CORPUS_DIR.glob("*.bin"))


def _clb_structured(total: int, seed: int = 77) -> bytes:
    """Synthetic CLB-major frame bytes: strided records from a pattern pool."""
    rng = random.Random(seed)
    pool = [rng.randrange(1, 1 << 16) for _ in range(4)]
    records = bytearray()
    clb = 0
    while len(records) < total:
        pattern = pool[(clb // 4) % 4]
        record = bytearray(42)
        for lut in range(8):
            record[lut * 2] = pattern & 0xFF
            record[lut * 2 + 1] = (pattern >> 8) & 0xFF
        records.extend(record)
        clb += 1
    return bytes(records[:total])


class TestGoldenCorpus:
    @pytest.mark.parametrize("codec_name", sorted(CODECS), ids=lambda n: CODECS[n].name)
    @pytest.mark.parametrize("input_name", CORPUS_NAMES, ids=str)
    def test_compress_is_byte_identical_to_seed(self, codec_name, input_name):
        codec = CODECS[codec_name]
        data = (CORPUS_DIR / f"{input_name}.bin").read_bytes()
        golden = (GOLDEN_DIR / f"{codec_name}__{input_name}.bin").read_bytes()
        assert codec.compress(data) == golden

    @pytest.mark.parametrize("codec_name", sorted(CODECS), ids=lambda n: CODECS[n].name)
    @pytest.mark.parametrize("input_name", CORPUS_NAMES, ids=str)
    def test_seed_blobs_still_decode(self, codec_name, input_name):
        codec = CODECS[codec_name]
        data = (CORPUS_DIR / f"{input_name}.bin").read_bytes()
        golden = (GOLDEN_DIR / f"{codec_name}__{input_name}.bin").read_bytes()
        assert codec.decompress(golden) == data

    def test_corpus_is_complete(self):
        # One golden blob per (codec, input) pair; catches stray/missing files.
        expected = {f"{c}__{i}.bin" for c in CODECS for i in CORPUS_NAMES}
        assert {path.name for path in GOLDEN_DIR.glob("*.bin")} == expected


class TestStructuredRoundTrips:
    """CLB-shaped and adversarially skewed inputs through every codec."""

    @pytest.mark.parametrize("codec", list(CODECS.values()), ids=lambda c: c.name)
    def test_clb_structured_round_trip(self, codec):
        data = _clb_structured(8192)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", list(CODECS.values()), ids=lambda c: c.name)
    @given(data=st.binary(max_size=2048))
    @settings(max_examples=30, deadline=None)
    def test_random_round_trip(self, codec, data):
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", list(CODECS.values()), ids=lambda c: c.name)
    @given(
        pattern=st.binary(min_size=1, max_size=64),
        repeats=st.integers(min_value=1, max_value=64),
        tail=st.binary(max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_repetitive_round_trip(self, codec, pattern, repeats, tail):
        data = pattern * repeats + tail
        assert codec.decompress(codec.compress(data)) == data

    def test_huffman_deep_tree_round_trip(self):
        # Exponential symbol counts force maximum-depth canonical codes,
        # exercising the decoder's long-code fallback path.
        data = b"".join(bytes([i]) * (2 ** min(i, 14)) for i in range(18))
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(data)) == data

    def test_golomb_explicit_parameters_round_trip(self):
        # The Rice parameter follows the mean zero run: drive it from 0 to 15.
        codec = GolombRiceCodec()
        for k, data in (
            (0, bytes(range(1, 64))),
            (1, b"\x00\x00\x00\x07" * 100),
            (7, (b"\x00" * 200 + b"\x07") * 10),
            (15, b"\x00" * 70_000 + b"\x07"),
        ):
            blob = codec.compress(data)
            assert blob[4] == k
            assert codec.decompress(blob) == data


class TestAdversarialTruncation:
    @pytest.mark.parametrize("codec", list(CODECS.values()), ids=lambda c: c.name)
    @given(data=st.binary(max_size=512), cut=st.integers(min_value=0, max_value=511))
    @settings(max_examples=40, deadline=None)
    def test_truncated_blobs_never_crash(self, codec, data, cut):
        blob = codec.compress(data)
        truncated = blob[: min(cut, len(blob))]
        try:
            result = codec.decompress(truncated)
        except CodecError:
            return
        assert isinstance(result, bytes)

    def test_huffman_truncation_is_detected(self):
        blob = HuffmanCodec().compress(b"hello world, hello world")
        for cut in (1, 3, 100, len(blob) - 1):
            with pytest.raises(CodecError):
                HuffmanCodec().decompress(blob[:cut])

    def test_golomb_truncation_is_detected(self):
        blob = GolombRiceCodec().compress(b"\x00" * 64 + b"abcdef" * 10)
        for cut in (0, 4, 6, len(blob) - 1):
            with pytest.raises(CodecError):
                GolombRiceCodec().decompress(blob[:cut])

    def test_golomb_run_overrun_is_detected(self):
        # A forged stream whose zero-run exceeds the declared length: 200 one
        # bits and a zero (unary quotient 200, k=0 -> run of 200), then a
        # zero flag bit and padding.
        import struct

        blob = struct.pack(">IB", 10, 0) + b"\xff" * 25 + b"\x00"
        with pytest.raises(CodecError):
            GolombRiceCodec().decompress(blob)

    def test_huffman_invalid_code_is_detected(self):
        blob = bytearray(HuffmanCodec().compress(bytes(range(16)) * 8))
        blob[-1] ^= 0xFF  # corrupt the packed payload tail
        try:
            HuffmanCodec().decompress(bytes(blob))
        except CodecError:
            pass  # either outcome is fine; it must not crash or hang