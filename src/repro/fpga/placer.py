"""Frame-granular placement of netlists.

The placer answers the question the mini OS keeps asking: *given the frames
currently free, where does this function's logic go?*  Placement is
frame-granular (the paper's unit of reconfiguration); within a frame LUT cells
are assigned to CLB/LUT slots in order.  Three strategies are provided:

* ``CONTIGUOUS_FIRST_FIT`` — prefer a single contiguous run of frames, fall
  back to scattered frames if no run is long enough (the paper explicitly
  allows non-contiguous regions).
* ``CONTIGUOUS_ONLY`` — fail if no contiguous run exists (used by the
  fragmentation ablation).
* ``SCATTER`` — take free frames in index order without trying to keep them
  together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fpga.errors import PlacementError
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry, FrameAddress
from repro.fpga.netlist import Netlist


class PlacementStrategy(enum.Enum):
    """How the placer chooses frames from the free list."""

    CONTIGUOUS_FIRST_FIT = "contiguous-first-fit"
    CONTIGUOUS_ONLY = "contiguous-only"
    SCATTER = "scatter"


@dataclass(frozen=True)
class CellSite:
    """Physical site of one placed LUT cell."""

    frame: FrameAddress
    clb_index: int
    lut_index: int


@dataclass
class Placement:
    """Result of placing a netlist: the region plus per-cell sites."""

    region: FrameRegion
    sites: Dict[str, CellSite] = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return len(self.region)

    def cells_in_frame(self, address: FrameAddress) -> List[str]:
        return [name for name, site in self.sites.items() if site.frame == address]


class Placer:
    """Places netlists onto free frames of a fabric."""

    def __init__(self, geometry: FabricGeometry, strategy: PlacementStrategy = PlacementStrategy.CONTIGUOUS_FIRST_FIT) -> None:
        self.geometry = geometry
        self.strategy = strategy

    # --------------------------------------------------------------- sizing
    def frames_required(self, netlist: Netlist) -> int:
        """Frames needed to host the netlist's LUTs (at least one)."""
        return max(1, self.geometry.frames_needed_for_luts(netlist.lut_count))

    # ------------------------------------------------------------ selection
    def choose_frames(
        self,
        frames_needed: int,
        free_frames: Sequence[FrameAddress],
    ) -> List[FrameAddress]:
        """Pick *frames_needed* frames from *free_frames* per the strategy."""
        if frames_needed <= 0:
            raise PlacementError("a placement needs at least one frame")
        if len(free_frames) < frames_needed:
            raise PlacementError(
                f"need {frames_needed} free frames but only {len(free_frames)} are available"
            )
        ordered = sorted(
            free_frames, key=lambda address: address.flat_index(self.geometry.tiles_per_column)
        )
        if self.strategy is PlacementStrategy.SCATTER:
            return ordered[:frames_needed]
        run = self._find_contiguous_run(ordered, frames_needed)
        if run is not None:
            return run
        if self.strategy is PlacementStrategy.CONTIGUOUS_ONLY:
            raise PlacementError(
                f"no contiguous run of {frames_needed} free frames exists "
                f"(free fragments are too small)"
            )
        return ordered[:frames_needed]

    def _find_contiguous_run(
        self, ordered: List[FrameAddress], frames_needed: int
    ) -> Optional[List[FrameAddress]]:
        """First run of consecutive flat indices long enough, else ``None``."""
        tiles = self.geometry.tiles_per_column
        run: List[FrameAddress] = []
        previous_index: Optional[int] = None
        for address in ordered:
            index = address.flat_index(tiles)
            if previous_index is not None and index == previous_index + 1:
                run.append(address)
            else:
                run = [address]
            previous_index = index
            if len(run) >= frames_needed:
                return run[:frames_needed]
        return None

    # -------------------------------------------------------------- placing
    def place(
        self,
        netlist: Netlist,
        free_frames: Sequence[FrameAddress],
        frames_needed: Optional[int] = None,
    ) -> Placement:
        """Place *netlist* onto frames drawn from *free_frames*."""
        needed = frames_needed if frames_needed is not None else self.frames_required(netlist)
        chosen = self.choose_frames(needed, free_frames)
        region = FrameRegion.from_addresses(chosen)
        placement = Placement(region=region)
        lut_cells = sorted(netlist.lut_cells, key=lambda cell: cell.name)
        capacity = needed * self.geometry.luts_per_frame
        if len(lut_cells) > capacity:
            raise PlacementError(
                f"netlist {netlist.name!r} has {len(lut_cells)} LUTs but the region "
                f"only offers {capacity} LUT sites"
            )
        for position, cell in enumerate(lut_cells):
            frame_slot, within_frame = divmod(position, self.geometry.luts_per_frame)
            clb_index, lut_index = divmod(within_frame, self.geometry.luts_per_clb)
            placement.sites[cell.name] = CellSite(
                frame=chosen[frame_slot], clb_index=clb_index, lut_index=lut_index
            )
        return placement

    def largest_free_run(self, free_frames: Sequence[FrameAddress]) -> int:
        """Length of the longest run of consecutive frames in *free_frames*."""
        tiles = self.geometry.tiles_per_column
        longest = current = 0
        previous = -2
        for index in sorted([address.flat_index(tiles) for address in free_frames]):
            current = current + 1 if index == previous + 1 else 1
            longest = max(longest, current)
            previous = index
        return longest

    def fragmentation(self, free_frames: Sequence[FrameAddress]) -> float:
        """A fragmentation index in [0, 1]: 0 when the free space is one run.

        Defined as ``1 - largest_free_run / total_free``; the defragmenter
        reports it after each pass, and E11 compares it across its cells.
        """
        if not free_frames:
            return 0.0
        return 1.0 - self.largest_free_run(free_frames) / len(free_frames)
