"""Tests for fabric geometry and frame addressing."""

import pytest

from repro.fpga.geometry import CLB_CONFIG_BYTES, DEFAULT_GEOMETRY, FabricGeometry, FrameAddress


class TestFabricGeometry:
    def test_frame_count_and_tiles(self, tiny_geometry):
        assert tiny_geometry.tiles_per_column == 4
        assert tiny_geometry.frame_count == 16
        assert tiny_geometry.clbs_per_frame == 4

    def test_rows_must_tile_into_frames(self):
        with pytest.raises(ValueError):
            FabricGeometry(columns=4, rows=10, clb_rows_per_frame=4)

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            FabricGeometry(columns=0, rows=16)
        with pytest.raises(ValueError):
            FabricGeometry(columns=4, rows=16, clb_rows_per_frame=0)

    def test_config_byte_sizes_are_consistent(self, tiny_geometry):
        # Eight 4-input LUTs (16 bits each), eight FF bits, 16 switch bytes.
        assert CLB_CONFIG_BYTES == 8 * 2 + 1 + 16
        assert tiny_geometry.frame_config_bytes == CLB_CONFIG_BYTES * tiny_geometry.clbs_per_frame

    def test_all_frames_enumerates_each_address_once(self, tiny_geometry):
        frames = tiny_geometry.all_frames()
        assert len(frames) == tiny_geometry.frame_count
        assert len(set(frames)) == tiny_geometry.frame_count

    def test_flat_index_round_trip(self, tiny_geometry):
        """Frame *i* of the raster sits at flat index ``column * tiles + tile``."""
        tiles = tiny_geometry.tiles_per_column
        for index, address in enumerate(tiny_geometry.all_frames()):
            assert address.column * tiles + address.tile == index

    def test_validate_rejects_foreign_address(self, tiny_geometry):
        with pytest.raises(IndexError):
            tiny_geometry.validate(FrameAddress(99, 0))

    def test_frames_needed_for_luts(self, tiny_geometry):
        per_frame = tiny_geometry.luts_per_frame
        assert tiny_geometry.frames_needed_for_luts(0) == 0
        assert tiny_geometry.frames_needed_for_luts(1) == 1
        assert tiny_geometry.frames_needed_for_luts(per_frame) == 1
        assert tiny_geometry.frames_needed_for_luts(per_frame + 1) == 2

    def test_default_geometry_is_valid(self):
        assert DEFAULT_GEOMETRY.frame_count == 128


class TestFrameAddress:
    def test_ordering_and_string(self):
        assert FrameAddress(0, 1) < FrameAddress(1, 0)
        assert str(FrameAddress(2, 3)) == "F[2,3]"

    def test_hashable_and_equal(self):
        assert FrameAddress(1, 1) == FrameAddress(1, 1)
        assert len({FrameAddress(1, 1), FrameAddress(1, 1)}) == 1
