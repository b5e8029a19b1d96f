"""Tests for CRC-32 and the bit-level I/O helpers."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.crc_table import crc32_reference
from repro.bitstream.bitio import BitReader, BitWriter
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


class TestBitIo:
    def test_write_and_read_bits(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0x5A, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(4) == 0b1011
        assert reader.read_bits(8) == 0x5A

    def test_single_bits_and_padding(self):
        writer = BitWriter()
        for bit in (1, 0, 1):
            writer.write_bit(bit)
        data = writer.getvalue()
        assert len(data) == 1
        reader = BitReader(data)
        assert [reader.read_bit() for _ in range(3)] == [1, 0, 1]

    def test_unary_round_trip(self):
        writer = BitWriter()
        for value in (0, 3, 7, 1):
            writer.write_unary(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_unary() for _ in range(4)] == [0, 3, 7, 1]

    def test_invalid_writes(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bit(2)
        with pytest.raises(ValueError):
            writer.write_bits(4, 2)
        with pytest.raises(ValueError):
            writer.write_bits(1, -1)
        with pytest.raises(ValueError):
            writer.write_unary(-1)

    def test_read_past_end_raises(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_align_to_byte(self):
        reader = BitReader(bytes([0b10000000, 0xFF]))
        reader.read_bit()
        reader.align_to_byte()
        assert reader.read_bits(8) == 0xFF

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11

    @given(st.lists(st.integers(min_value=0, max_value=2**16 - 1), max_size=20),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_fixed_width_round_trip_property(self, values, width):
        values = [value % (1 << width) for value in values]
        writer = BitWriter()
        for value in values:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bits(width) for _ in values] == values
