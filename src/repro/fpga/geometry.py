"""Fabric floorplan and frame addressing.

The paper defines a *frame* as "a prespecified number of Logic Blocks and the
relevant Switch Blocks".  We model the device as a grid of CLB columns; each
frame covers one column-aligned tile of ``clb_rows_per_frame`` CLBs together
with their switch boxes.  Frames are the unit of partial reconfiguration and
of allocation in the mini OS's free frame list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List


@dataclass(frozen=True, order=True)
class FrameAddress:
    """Address of one frame: (column, tile) with a flat ``index`` view."""

    column: int
    tile: int

    def flat_index(self, tiles_per_column: int) -> int:
        """Flattened index used by the free-frame list and bit-stream packets."""
        return self.column * tiles_per_column + self.tile

    def __str__(self) -> str:
        return f"F[{self.column},{self.tile}]"


@dataclass(frozen=True)
class FabricGeometry:
    """Dimensions and derived sizes of the modelled fabric.

    Parameters
    ----------
    columns:
        Number of CLB columns.
    rows:
        Number of CLB rows.
    clb_rows_per_frame:
        CLB rows grouped into one frame (the paper's "prespecified number of
        logic blocks").
    luts_per_clb:
        LUT/flip-flop pairs per CLB (Virtex-II style CLBs hold 8 4-input LUTs).
    lut_inputs:
        Inputs per LUT.
    switch_bytes_per_clb:
        Configuration bytes modelling the routing (switch box) state
        associated with each CLB.
    """

    columns: int = 16
    rows: int = 64
    clb_rows_per_frame: int = 8
    luts_per_clb: int = 8
    lut_inputs: int = 4
    switch_bytes_per_clb: int = 16

    def __post_init__(self) -> None:
        if self.columns <= 0 or self.rows <= 0:
            raise ValueError("fabric must have positive dimensions")
        if self.clb_rows_per_frame <= 0:
            raise ValueError("a frame must contain at least one CLB row")
        if self.rows % self.clb_rows_per_frame != 0:
            raise ValueError(
                "rows must be a multiple of clb_rows_per_frame so frames tile the column"
            )
        if self.luts_per_clb <= 0 or self.lut_inputs <= 0:
            raise ValueError("CLBs must contain at least one LUT with at least one input")
        if self.switch_bytes_per_clb < 0:
            raise ValueError("switch bytes cannot be negative")

    # -------------------------------------------------------------- derived
    @property
    def tiles_per_column(self) -> int:
        """Frames stacked in one column."""
        return self.rows // self.clb_rows_per_frame

    @property
    def frame_count(self) -> int:
        """Total number of frames on the device."""
        return self.columns * self.tiles_per_column

    @property
    def clbs_per_frame(self) -> int:
        """CLBs covered by one frame."""
        return self.clb_rows_per_frame

    @property
    def luts_per_frame(self) -> int:
        return self.clbs_per_frame * self.luts_per_clb

    # The three byte sizes below are read on every frame write, so each is
    # computed once per instance: cached_property writes the instance dict
    # directly, which a frozen dataclass allows, and stays out of eq/hash/repr.
    @cached_property
    def lut_truth_table_bytes(self) -> int:
        """Bytes needed to store one LUT truth table (2**inputs bits)."""
        bits = 1 << self.lut_inputs
        return max(1, bits // 8)

    @cached_property
    def clb_config_bytes(self) -> int:
        """Configuration bytes for one CLB: LUT truth tables, FF init bits,
        and the switch-box routing bytes attributed to the CLB."""
        lut_bytes = self.luts_per_clb * self.lut_truth_table_bytes
        ff_bytes = max(1, self.luts_per_clb // 8)
        return lut_bytes + ff_bytes + self.switch_bytes_per_clb

    @cached_property
    def frame_config_bytes(self) -> int:
        """Configuration bytes for one full frame (the reconfiguration quantum)."""
        return self.clbs_per_frame * self.clb_config_bytes

    @property
    def device_config_bytes(self) -> int:
        """Size of a full-device configuration image."""
        return self.frame_count * self.frame_config_bytes

    # ----------------------------------------------------------- addressing
    def all_frames(self) -> List[FrameAddress]:
        """Every frame address in raster (column-major) order."""
        return [
            FrameAddress(column, tile)
            for column in range(self.columns)
            for tile in range(self.tiles_per_column)
        ]

    def frame_at(self, flat_index: int) -> FrameAddress:
        """Inverse of :meth:`FrameAddress.flat_index`."""
        if not 0 <= flat_index < self.frame_count:
            raise IndexError(
                f"frame index {flat_index} out of range 0..{self.frame_count - 1}"
            )
        column, tile = divmod(flat_index, self.tiles_per_column)
        return FrameAddress(column, tile)

    def validate(self, address: FrameAddress) -> FrameAddress:
        """Check that *address* exists on this fabric; returns it unchanged."""
        if not (0 <= address.column < self.columns and 0 <= address.tile < self.tiles_per_column):
            raise IndexError(f"{address} does not exist on a {self.columns}x{self.rows} fabric")
        return address

    def frames_needed_for_luts(self, lut_count: int) -> int:
        """Minimum number of frames able to host *lut_count* LUTs."""
        if lut_count <= 0:
            return 0
        return -(-lut_count // self.luts_per_frame)

    def describe(self) -> str:
        """One-line human readable summary used in reports."""
        return (
            f"{self.columns}x{self.rows} CLBs, {self.frame_count} frames of "
            f"{self.clbs_per_frame} CLBs ({self.frame_config_bytes} config bytes/frame, "
            f"{self.device_config_bytes} bytes full device)"
        )


#: A small fabric convenient for unit tests (64 frames, 1 KiB frames).
TEST_GEOMETRY = FabricGeometry(columns=8, rows=32, clb_rows_per_frame=4)

#: Default geometry sized loosely after a mid-range Virtex-II part.
DEFAULT_GEOMETRY = FabricGeometry(columns=16, rows=64, clb_rows_per_frame=8)
