"""The Free Frame List."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set

from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry, FrameAddress


class FreeFrameList:
    """Tracks which frames are free for programming without disturbing
    currently loaded functions.

    The list is kept sorted by flat frame index so allocation decisions (and
    the contiguity checks the placer performs) are deterministic.  The sorted
    view is cached between mutations, so the mini OS's per-request queries
    (``as_list`` for placement candidates, ``largest_contiguous_run`` for
    fragmentation reporting) stop re-sorting the whole set every time.
    """

    def __init__(self, geometry: FabricGeometry, initially_free: Optional[Iterable[FrameAddress]] = None) -> None:
        self.geometry = geometry
        if initially_free is None:
            initially_free = geometry.all_frames()
        self._free: Set[FrameAddress] = set()
        for address in initially_free:
            geometry.validate(address)
            self._free.add(address)
        self._sorted_cache: Optional[List[FrameAddress]] = None

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, address: FrameAddress) -> bool:
        return address in self._free

    def __iter__(self) -> Iterator[FrameAddress]:
        return iter(self.as_list())

    def _sorted(self) -> List[FrameAddress]:
        cached = self._sorted_cache
        if cached is None:
            tiles = self.geometry.tiles_per_column
            cached = sorted(self._free, key=lambda a: a.flat_index(tiles))
            self._sorted_cache = cached
        return cached

    def as_list(self) -> List[FrameAddress]:
        """Free frames sorted by flat index."""
        return list(self._sorted())

    @property
    def free_count(self) -> int:
        return len(self._free)

    def largest_contiguous_run(self) -> int:
        """Length of the longest run of consecutive free frames."""
        tiles = self.geometry.tiles_per_column
        longest = 0
        current = 0
        previous = None
        for address in self._sorted():
            index = address.flat_index(tiles)
            current = current + 1 if previous is not None and index == previous + 1 else 1
            longest = max(longest, current)
            previous = index
        return longest

    # ------------------------------------------------------------- mutation
    def allocate(self, region: FrameRegion) -> None:
        """Remove the frames of *region* from the free list.

        Raises :class:`ValueError` if any of them is not currently free —
        that would mean the mini OS double-booked a frame.
        """
        missing = [address for address in region if address not in self._free]
        if missing:
            raise ValueError(f"frames {missing} are not on the free frame list")
        for address in region:
            self._free.discard(address)
        self._sorted_cache = None

    def release(self, region: FrameRegion) -> None:
        """Return the frames of *region* to the free list."""
        for address in region:
            self.geometry.validate(address)
            self._free.add(address)
        self._sorted_cache = None

    def clear(self) -> None:
        """Mark every frame free (device reset)."""
        self._free = set(self.geometry.all_frames())
        self._sorted_cache = None

    def describe(self) -> str:
        return (
            f"FreeFrameList({self.free_count}/{self.geometry.frame_count} free, "
            f"largest run {self.largest_contiguous_run()})"
        )
