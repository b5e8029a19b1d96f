"""Tests for frames, frame regions and the frame array."""

import pytest

from repro.fpga.frame import Frame, FrameArray, FrameRegion, blank_clbs, encode_clbs
from repro.fpga.geometry import FrameAddress
from repro.fpga.lut import LookUpTable


def _one_lut_payload(geometry, clb_index, lut_index, lut):
    """Frame bytes with a single configured LUT, built through the CLB codec."""
    clbs = blank_clbs(geometry)
    clbs[clb_index].luts[lut_index] = lut
    return encode_clbs(clbs)


class TestFrame:
    def test_serialisation_round_trip(self, tiny_geometry):
        clbs = blank_clbs(tiny_geometry)
        clbs[0].luts[0] = LookUpTable.logic_xor(4)
        clbs[2].switch_box.state[1] = 0x55
        data = encode_clbs(clbs)
        assert len(data) == tiny_geometry.frame_config_bytes

        other = Frame(tiny_geometry, FrameAddress(1, 1))
        other.load_config_bytes(data)
        assert other.to_config_bytes() == data
        decoded = other.decode_clbs()
        assert decoded[0].luts[0] == LookUpTable.logic_xor(4)
        assert decoded[2].switch_box.state[1] == 0x55

    def test_decoded_view_is_a_copy(self, tiny_geometry):
        frame = Frame(tiny_geometry, FrameAddress(0, 0))
        frame.decode_clbs()[0].luts[0] = LookUpTable.constant(4, True)
        assert frame.is_clear

    def test_wrong_payload_length_rejected(self, tiny_geometry):
        frame = Frame(tiny_geometry, FrameAddress(0, 0))
        with pytest.raises(ValueError):
            frame.load_config_bytes(b"\x00")

    def test_non_canonical_payload_reads_back_canonical(self):
        # Unused padding bits (here the FF byte's upper nibble, with 4 LUTs
        # per CLB) are not stored; readback must return the canonical
        # serialisation, not echo the raw written bytes.
        from repro.fpga.geometry import FabricGeometry

        geometry = FabricGeometry(columns=1, rows=4, clb_rows_per_frame=4, luts_per_clb=4)
        frame = Frame(geometry, FrameAddress(0, 0))
        payload = bytearray(frame.config_byte_length)
        lut_bytes = max(1, (1 << geometry.lut_inputs) // 8)
        ff_offset = geometry.luts_per_clb * lut_bytes
        payload[ff_offset] = 0xF0  # only unused padding bits set
        frame.load_config_bytes(bytes(payload))
        assert frame.to_config_bytes()[ff_offset] == 0
        assert frame.is_clear

    def test_clear_and_is_clear(self, tiny_geometry):
        frame = Frame(tiny_geometry, FrameAddress(0, 0))
        assert frame.is_clear
        frame.load_config_bytes(
            _one_lut_payload(tiny_geometry, 1, 3, LookUpTable.constant(4, True))
        )
        assert not frame.is_clear
        frame.clear()
        assert frame.is_clear
        assert frame.to_config_bytes() == bytes(tiny_geometry.frame_config_bytes)

    def test_invalid_address_rejected(self, tiny_geometry):
        with pytest.raises(IndexError):
            Frame(tiny_geometry, FrameAddress(99, 0))

    def test_flat_index(self, tiny_geometry):
        frame = Frame(tiny_geometry, FrameAddress(1, 2))
        assert frame.flat_index == 1 * tiny_geometry.tiles_per_column + 2


class TestFrameRegion:
    def test_duplicate_addresses_rejected(self):
        with pytest.raises(ValueError):
            FrameRegion((FrameAddress(0, 0), FrameAddress(0, 0)))

    def test_contiguity(self, tiny_geometry):
        contiguous = FrameRegion.from_addresses(
            [tiny_geometry.frame_at(index) for index in (2, 3, 4)]
        )
        scattered = FrameRegion.from_addresses(
            [tiny_geometry.frame_at(index) for index in (0, 5, 9)]
        )
        assert contiguous.is_contiguous(tiny_geometry)
        assert not scattered.is_contiguous(tiny_geometry)

    def test_empty_region_is_contiguous(self, tiny_geometry):
        assert FrameRegion(()).is_contiguous(tiny_geometry)

    def test_overlap_and_intersection(self, tiny_geometry):
        region_a = FrameRegion.from_addresses([tiny_geometry.frame_at(index) for index in (0, 1, 2)])
        region_b = FrameRegion.from_addresses([tiny_geometry.frame_at(index) for index in (2, 3)])
        region_c = FrameRegion.from_addresses([tiny_geometry.frame_at(index) for index in (7, 8)])
        assert region_a.overlaps(region_b)
        assert not region_a.overlaps(region_c)
        assert region_a.intersection(region_b) == (tiny_geometry.frame_at(2),)

    def test_union_preserves_order_and_uniqueness(self, tiny_geometry):
        region_a = FrameRegion.from_addresses([tiny_geometry.frame_at(0), tiny_geometry.frame_at(1)])
        region_b = FrameRegion.from_addresses([tiny_geometry.frame_at(1), tiny_geometry.frame_at(2)])
        union = region_a.union(region_b)
        assert len(union) == 3
        assert list(union)[0] == tiny_geometry.frame_at(0)

    def test_contains_and_iteration(self, tiny_geometry):
        region = FrameRegion.from_addresses([tiny_geometry.frame_at(4)])
        assert tiny_geometry.frame_at(4) in region
        assert tiny_geometry.frame_at(5) not in region
        assert list(region.flat_indices(tiny_geometry)) == [4]

    def test_describe(self, tiny_geometry):
        region = FrameRegion.from_addresses([tiny_geometry.frame_at(0)])
        assert "F[0,0]" in region.describe()


class TestFrameArray:
    def test_contains_every_frame(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        assert len(array) == tiny_geometry.frame_count
        assert array.by_flat_index(3).address == tiny_geometry.frame_at(3)

    def test_unknown_address_rejected(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        with pytest.raises(IndexError):
            array[FrameAddress(50, 50)]

    def test_region_and_clear_region(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        region = FrameRegion.from_addresses([tiny_geometry.frame_at(1), tiny_geometry.frame_at(0)])
        frames = array.region(region)
        assert [frame.address for frame in frames] == list(region)
        frames[0].load_config_bytes(
            _one_lut_payload(tiny_geometry, 0, 0, LookUpTable.constant(4, True))
        )
        assert not array[tiny_geometry.frame_at(1)].is_clear
        for frame in frames:
            frame.clear()
        assert array[tiny_geometry.frame_at(1)].is_clear

    def test_snapshot_covers_device(self, tiny_geometry):
        array = FrameArray(tiny_geometry)
        snapshot = array.snapshot()
        assert len(snapshot) == tiny_geometry.frame_count
        assert all(len(data) == tiny_geometry.frame_config_bytes for data in snapshot.values())
