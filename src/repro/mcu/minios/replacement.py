"""The Frame Replacement Table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.fpga.frame import FrameRegion


@dataclass
class FrameReplacementEntry:
    """Book-keeping for one algorithm currently resident on the FPGA.

    ``last_access_ns`` is the paper's "time stamp specifying the last moment
    at which it was accessed"; ``loaded_at_ns`` and ``access_count`` exist so
    FIFO and LFU policies can be evaluated against the paper's LRU choice.
    """

    name: str
    region: FrameRegion
    loaded_at_ns: int
    last_access_ns: int
    access_count: int = 0

    @property
    def frame_count(self) -> int:
        return len(self.region)

    def touch(self, now_ns: int) -> None:
        """Record an access at *now_ns*."""
        self.last_access_ns = now_ns
        self.access_count += 1


class FrameReplacementTable:
    """Maps each resident algorithm to its frames and usage statistics."""

    def __init__(self) -> None:
        self._entries: Dict[str, FrameReplacementEntry] = {}
        #: Frames the entries' regions hold between them.
        self.held_frames = 0

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[FrameReplacementEntry]:
        return iter(list(self._entries.values()))

    def entry(self, name: str) -> FrameReplacementEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"{name!r} is not resident on the FPGA") from None

    def names(self) -> List[str]:
        return list(self._entries)

    # ------------------------------------------------------------- mutation
    def insert(self, name: str, region: FrameRegion, now_ns: int) -> FrameReplacementEntry:
        """Register a newly loaded algorithm."""
        if name in self._entries:
            raise ValueError(f"{name!r} is already in the replacement table")
        entry = FrameReplacementEntry(
            name=name,
            region=region,
            loaded_at_ns=now_ns,
            last_access_ns=now_ns,
        )
        self._entries[name] = entry
        self.held_frames += len(region)
        return entry

    def remove(self, name: str) -> FrameReplacementEntry:
        """Drop an evicted algorithm; returns its entry (for the freed frames)."""
        try:
            entry = self._entries.pop(name)
        except KeyError:
            raise KeyError(f"{name!r} is not resident on the FPGA") from None
        self.held_frames -= entry.frame_count
        return entry

    def touch(self, name: str, now_ns: int) -> None:
        """Update the access time stamp of *name*."""
        self.entry(name).touch(now_ns)

    def record_reload(self, name: str, now_ns: int) -> None:
        """An already-resident function was reloaded (e.g. after relocation)."""
        self.entry(name).loaded_at_ns = now_ns

    def clear(self) -> None:
        self._entries.clear()
        self.held_frames = 0
