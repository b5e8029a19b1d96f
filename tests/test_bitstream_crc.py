"""Tests for CRC-32."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.crc_table import crc32_reference
from repro.bitstream.crc import IncrementalCrc32, crc32


class TestCrc32:
    def test_known_value(self):
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    def test_matches_zlib(self):
        for data in (b"", b"a", b"hello world", bytes(range(256)) * 3):
            assert crc32(data) == zlib.crc32(data) == crc32_reference(data)

    @given(st.binary(max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_matches_zlib_property(self, data):
        assert crc32(data) == zlib.crc32(data) == crc32_reference(data)

    def test_incremental_matches_one_shot(self):
        data = b"the quick brown fox jumps over the lazy dog"
        accumulator = IncrementalCrc32()
        accumulator.update(data[:10]).update(data[10:])
        assert accumulator.value == crc32(data)

    def test_incremental_reset(self):
        accumulator = IncrementalCrc32()
        accumulator.update(b"junk")
        accumulator.reset()
        accumulator.update(b"abc")
        assert accumulator.value == crc32(b"abc")

    def test_initial_parameter_chains(self):
        data = b"abcdef"
        assert crc32(data[3:], crc32(data[:3])) == crc32(data)

