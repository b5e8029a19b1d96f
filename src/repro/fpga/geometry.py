"""Fabric floorplan and frame addressing.

The paper defines a *frame* as "a prespecified number of Logic Blocks and the
relevant Switch Blocks".  We model the device as a grid of CLB columns; each
frame covers one column-aligned tile of ``clb_rows_per_frame`` CLBs together
with their switch boxes.  Frames are the unit of partial reconfiguration and
of allocation in the mini OS's free frame list.

A CLB has one shape on every card: eight LUT/flip-flop pairs (Virtex-II
style) of 4-input LUTs and sixteen switch-box bytes.  Its configuration image
is the eight two-byte truth tables, one byte of flip-flop init bits and the
switch bytes, so every bit of a frame is a configuration cell, and two
fabrics whose frames hold the same number of bytes hold interchangeable
frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, NamedTuple, Tuple

#: LUT/flip-flop pairs per CLB.
LUTS_PER_CLB = 8
#: Inputs per LUT: a truth table is 16 bits, two whole bytes.
LUT_INPUTS = 4
#: Configuration bytes modelling the routing (switch box) state of one CLB.
SWITCH_BYTES_PER_CLB = 16
#: One CLB's configuration bytes: truth tables, FF init bits, switch bytes.
CLB_CONFIG_BYTES = LUTS_PER_CLB * (1 << LUT_INPUTS) // 8 + LUTS_PER_CLB // 8 + SWITCH_BYTES_PER_CLB


class FrameAddress(NamedTuple):
    """Address of one frame: (column, tile).

    A named tuple, so addresses hash, compare and sort in C; the order is
    lexicographic ``(column, tile)``, which on a fabric is raster order: the
    frame at flat index *i* is ``geometry.all_frames()[i]``.
    """

    column: int
    tile: int

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
    """

    columns: int = 16
    rows: int = 64
    clb_rows_per_frame: int = 8

    def __post_init__(self) -> None:
        if self.columns <= 0 or self.rows <= 0:
            raise ValueError("fabric must have positive dimensions")
        if self.clb_rows_per_frame <= 0:
            raise ValueError("a frame must contain at least one CLB row")
        if self.rows % self.clb_rows_per_frame != 0:
            raise ValueError(
                "rows must be a multiple of clb_rows_per_frame so frames tile the column"
            )

    # -------------------------------------------------------------- derived
    # The sizes read on every load or frame write are computed once per
    # instance: cached_property writes the instance dict directly, which a
    # frozen dataclass allows, and stays out of eq/hash/repr.
    @cached_property
    def tiles_per_column(self) -> int:
        """Frames stacked in one column."""
        return self.rows // self.clb_rows_per_frame

    @cached_property
    def frame_count(self) -> int:
        """Total number of frames on the device."""
        return self.columns * self.tiles_per_column

    @property
    def clbs_per_frame(self) -> int:
        """CLBs covered by one frame."""
        return self.clb_rows_per_frame

    @property
    def luts_per_frame(self) -> int:
        return self.clbs_per_frame * LUTS_PER_CLB

    @cached_property
    def frame_config_bytes(self) -> int:
        """Configuration bytes for one full frame (the reconfiguration quantum)."""
        return self.clbs_per_frame * CLB_CONFIG_BYTES

    # ----------------------------------------------------------- addressing
    def all_frames(self) -> List[FrameAddress]:
        """Every frame address in raster (column-major) order."""
        return list(_raster(self))

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


@lru_cache(maxsize=64)
def _raster(geometry: FabricGeometry) -> Tuple[FrameAddress, ...]:
    """The one set of address objects of *geometry*, in raster order.

    Every address the geometry hands out is one of these, so a dict keyed by
    them (the configuration memory's) finds each key by identity.
    """
    return tuple(
        FrameAddress(column, tile)
        for column in range(geometry.columns)
        for tile in range(geometry.tiles_per_column)
    )


#: A small fabric convenient for unit tests (64 frames of 132 bytes).
TEST_GEOMETRY = FabricGeometry(columns=8, rows=32, clb_rows_per_frame=4)

#: Default geometry sized loosely after a mid-range Virtex-II part.
DEFAULT_GEOMETRY = FabricGeometry(columns=16, rows=64, clb_rows_per_frame=8)
