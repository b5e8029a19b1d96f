"""Tests for frames, frame regions and the frame array."""

import zlib

import pytest

from oracles.clb_layout import decode_clbs
from oracles.luts import logic_xor
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.frame import Frame, FrameArray, FrameRegion, blank_clbs, encode_clbs
from repro.fpga.geometry import FrameAddress
from repro.fpga.lut import LookUpTable


def _one_lut_payload(geometry, clb_index, lut_index, lut):
    """Frame bytes with a single configured LUT, built through the CLB codec."""
    clbs = blank_clbs(geometry)
    clbs[clb_index].luts[lut_index] = lut
    return encode_clbs(clbs)


def _write(memory, address, data):
    """Store *data* in one frame through the memory's region write."""
    memory.write_region([address], [data], [zlib.crc32(data)])


class TestFrame:
    def test_serialisation_round_trip(self, tiny_geometry):
        clbs = blank_clbs(tiny_geometry)
        clbs[0].luts[0] = logic_xor(4)
        clbs[2].switch_box.state[1] = 0x55
        data = encode_clbs(clbs)
        assert len(data) == tiny_geometry.frame_config_bytes

        memory = ConfigurationMemory(tiny_geometry)
        _write(memory, FrameAddress(1, 1), data)
        other = memory.frames[FrameAddress(1, 1)]
        assert other.to_config_bytes() == data
        decoded = decode_clbs(tiny_geometry, other.to_config_bytes())
        assert decoded[0].luts[0].as_integer() == logic_xor(4).as_integer()
        assert decoded[2].switch_box.state[1] == 0x55

    def test_decoded_view_is_a_copy(self, tiny_geometry):
        frame = Frame(tiny_geometry, FrameAddress(0, 0))
        decode_clbs(tiny_geometry, frame.to_config_bytes())[0].luts[0] = LookUpTable.constant(4, True)
        assert not any(frame.to_config_bytes())

    def test_wrong_payload_length_rejected(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        with pytest.raises(ValueError, match=r"^frame F\[0,0\] expects \d+ config bytes, got 1$"):
            _write(memory, FrameAddress(0, 0), b"\x00")
        assert not any(memory.read_frame(FrameAddress(0, 0)))

    def test_clear_and_is_clear(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        frame = memory.frames[FrameAddress(0, 0)]
        assert not any(frame.to_config_bytes())
        _write(memory, frame.address, _one_lut_payload(tiny_geometry, 1, 3, LookUpTable.constant(4, True)))
        assert any(frame.to_config_bytes())
        memory.clear_region([frame.address])
        assert not any(frame.to_config_bytes())
        assert frame.to_config_bytes() == bytes(tiny_geometry.frame_config_bytes)

    def test_invalid_address_rejected(self, tiny_geometry):
        with pytest.raises(IndexError):
            Frame(tiny_geometry, FrameAddress(99, 0))


class TestFrameRegion:
    def test_duplicate_addresses_rejected(self):
        with pytest.raises(ValueError):
            FrameRegion((FrameAddress(0, 0), FrameAddress(0, 0)))

    def test_contains_and_iteration(self, tiny_geometry):
        region = FrameRegion.from_addresses([tiny_geometry.all_frames()[4]])
        assert tiny_geometry.all_frames()[4] in region
        assert tiny_geometry.all_frames()[5] not in region
        assert list(region) == [tiny_geometry.all_frames()[4]]


class TestFrameArray:
    def test_contains_every_frame(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        assert len(array.by_address) == tiny_geometry.frame_count
        assert array[tiny_geometry.all_frames()[3]].address == tiny_geometry.all_frames()[3]

    def test_unknown_address_rejected(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        with pytest.raises(IndexError):
            array[FrameAddress(50, 50)]

    def test_region_and_clear_region(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        array = memory.frames
        region = FrameRegion.from_addresses([tiny_geometry.all_frames()[1], tiny_geometry.all_frames()[0]])
        frames = [array[address] for address in region]
        assert [frame.address for frame in frames] == list(region)
        _write(memory, frames[0].address, _one_lut_payload(tiny_geometry, 0, 0, LookUpTable.constant(4, True)))
        assert any(array[tiny_geometry.all_frames()[1]].to_config_bytes())
        memory.clear_region(region)
        assert not any(array[tiny_geometry.all_frames()[1]].to_config_bytes())
