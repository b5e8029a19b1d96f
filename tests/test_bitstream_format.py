"""Tests for the packetised bit-stream container format."""

import struct

import pytest

from repro.bitstream.format import (
    Bitstream,
    BitstreamFormatError,
    BitstreamHeader,
    build_bitstream,
    parse_bitstream,
)


def _frames(count=3, size=64, fill=0xA5):
    return [bytes([fill + index & 0xFF]) * size for index in range(count)]


class TestBitstreamHeader:
    def test_pack_unpack_round_trip(self):
        header = BitstreamHeader(
            function_id=7,
            function_name="fft256",
            frame_count=4,
            frame_payload_bytes=264,
            input_bytes=512,
            output_bytes=1024,
            lut_count=2000,
            flags=BitstreamHeader.FLAG_PARTIAL,
        )
        rebuilt = BitstreamHeader.unpack(header.pack())
        assert rebuilt == header
        assert rebuilt.flags & BitstreamHeader.FLAG_PARTIAL

    def test_validation(self):
        with pytest.raises(ValueError):
            BitstreamHeader(1, "x" * 20, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            BitstreamHeader(1, "ok", 0, 1, 1, 1)
        with pytest.raises(ValueError):
            BitstreamHeader(1, "ok", 1, 0, 1, 1)
        with pytest.raises(ValueError):
            BitstreamHeader(-1, "ok", 1, 1, 1, 1)

    def test_bad_magic_rejected(self):
        header = BitstreamHeader(1, "ok", 1, 8, 4, 4)
        data = bytearray(header.pack())
        data[0:4] = b"XXXX"
        with pytest.raises(BitstreamFormatError):
            BitstreamHeader.unpack(bytes(data))

    def test_truncated_header_rejected(self):
        with pytest.raises(BitstreamFormatError):
            BitstreamHeader.unpack(b"\x00" * 4)


class TestBuildAndParse:
    def test_round_trip(self):
        frames = _frames()
        bitstream = build_bitstream(3, "sha1", frames, input_bytes=64, output_bytes=20)
        data = bitstream.to_bytes()
        parsed = parse_bitstream(data)
        assert parsed.header.function_name == "sha1"
        assert parsed.frames == frames
        assert parsed.to_bytes() == data

    def test_empty_frame_list_rejected(self):
        with pytest.raises(BitstreamFormatError):
            build_bitstream(1, "x", [], 1, 1)

    def test_inconsistent_frame_sizes_rejected(self):
        with pytest.raises(BitstreamFormatError):
            build_bitstream(1, "x", [b"\x00" * 4, b"\x00" * 8], 1, 1)

    def test_corrupted_payload_fails_crc(self):
        bitstream = build_bitstream(3, "sha1", _frames(), 64, 20)
        data = bytearray(bitstream.to_bytes())
        data[BitstreamHeader.packed_size() + 10] ^= 0xFF
        with pytest.raises(BitstreamFormatError):
            parse_bitstream(bytes(data))
        # Parsing without CRC verification accepts the corrupted stream.
        parsed = parse_bitstream(bytes(data), verify_crc=False)
        assert parsed.header.function_name == "sha1"

    def test_truncated_stream_rejected(self):
        data = build_bitstream(3, "sha1", _frames(), 64, 20).to_bytes()
        with pytest.raises(BitstreamFormatError):
            parse_bitstream(data[:-10])

    def test_missing_end_packet_rejected(self):
        bitstream = build_bitstream(1, "x", _frames(1), 4, 4)
        data = bitstream.to_bytes()
        # Strip the END packet (7-byte packet header + 4-byte CRC).
        with pytest.raises(BitstreamFormatError):
            parse_bitstream(data[:-11])

    def test_duplicate_slot_rejected(self):
        frames = _frames(2)
        bitstream = build_bitstream(1, "x", frames, 4, 4)
        data = bytearray(bitstream.to_bytes())
        # Rewrite the second packet's slot to 0 (duplicate).
        offset = BitstreamHeader.packed_size() + 7 + len(frames[0]) + 1
        data[offset:offset + 2] = struct.pack(">H", 0)
        with pytest.raises(BitstreamFormatError):
            parse_bitstream(bytes(data), verify_crc=False)

    def test_mismatched_frame_count_rejected(self):
        header = BitstreamHeader(1, "x", 2, 4, 1, 1)
        with pytest.raises(BitstreamFormatError):
            Bitstream(header=header, frames=[b"\x00" * 4])

    def test_payload_crc_is_stable(self):
        bitstream = build_bitstream(1, "x", _frames(2), 4, 4)
        assert bitstream.payload_crc == build_bitstream(1, "x", _frames(2), 4, 4).payload_crc
