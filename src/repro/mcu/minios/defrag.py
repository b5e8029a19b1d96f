"""Configuration-memory defragmentation: compact resident frame runs.

Long-running tenancy fragments the free frame list: functions load and evict
at different sizes until the free space is a scatter of small holes and a
large function can no longer be placed contiguously (with the
``CONTIGUOUS_ONLY`` strategy it cannot be placed at all; with first-fit it
lands scattered, which costs the placer its locality).  The
:class:`Defragmenter` is a mini-OS service — the same cooperative pattern as
the readback :class:`~repro.faults.scrubber.Scrubber` — that compacts owned
frame runs toward the low end of configuration memory by *relocating* whole
functions into holes with :meth:`~repro.fpga.device.FPGADevice.
relocate_function`.

Every move pays real card time (frame readback plus configuration-port
writes), moves the device's owner map, the golden image store and the
per-frame CRC check words together, and preserves each function's payload
sequence byte for byte — invariants the property tests pin down.  The mini
OS's side of a move is its table entry's new region: the Free Frame List is
that table's complement, so it follows with no bookkeeping of its own.

A pass is a fixed-point iteration: compute the ideal packed layout (functions
in ascending current position, packed from frame 0), relocate every function
whose packed target is currently writable (free or its own frames), and
repeat until a full round makes no progress or ``max_moves`` is reached.
Interleaved scattered regions can block each other for one round; moving one
of them frees the other's target in the next, so the loop converges without
ever needing a "spill" area.

A pass returns a :class:`DefragPassResult`: the moves it made and the frames
they rewrote.  It does not measure the Free Frame List; a caller that wants
the fragmentation index left behind asks :meth:`Defragmenter.fragmentation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fpga.device import FPGADevice
from repro.fpga.frame import FrameRegion
from repro.mcu.minios.minios import MiniOs
from repro.sim.clock import Clock


@dataclass
class DefragStatistics:
    """Counters the defragmenter accumulates over its lifetime."""

    passes: int = 0
    moves: int = 0
    frames_moved: int = 0


@dataclass
class DefragPassResult:
    """What one defragmentation pass (or bounded partial pass) achieved."""

    moves: int = 0
    frames_moved: int = 0


class Defragmenter:
    """Compacts a card's configuration memory by relocating owned frame runs."""

    def __init__(
        self,
        minios: MiniOs,
        device: FPGADevice,
        clock: Optional[Clock] = None,
    ) -> None:
        self.minios = minios
        self.device = device
        self.clock = clock if clock is not None else device.clock
        #: The fabric's frames in raster order: a packed target is a slice.
        self._frames = tuple(device.geometry.all_frames())
        self.stats = DefragStatistics()

    # --------------------------------------------------------------- queries
    def fragmentation(self) -> float:
        """The placer's fragmentation index of the Free Frame List."""
        return self.minios.placer.fragmentation(self.minios.free_frames())

    # ------------------------------------------------------------------ pass
    def _packed_targets(self):
        """The ideal compact layout: (entry, target_region) in pack order.

        Functions are packed from frame 0 in ascending order of their current
        lowest frame, then name, each onto a contiguous run, preserving frame
        count.  Addresses order as ``(column, tile)``, which is raster order,
        so a region's lowest frame is its least address and a run is a slice
        of the raster.
        """
        ranked = [(min(entry.region.addresses), entry.name, entry) for entry in self.minios.table]
        ranked.sort()
        frames = self._frames
        cursor = 0
        plan = []
        for _, _, entry in ranked:
            count = len(entry.region.addresses)
            plan.append((entry, FrameRegion(frames[cursor : cursor + count])))
            cursor += count
        return plan

    def _relocate(self, entry, target: FrameRegion) -> bool:
        """Try to move one function onto its packed target; True on success."""
        name = entry.name
        if set(target.addresses) == set(entry.region.addresses):
            return False
        # Writable means free or already ours — never another function's.
        for address in target:
            owner = self.device.memory.owner_of(address)
            if owner is not None and owner != name:
                return False
        # A failed transfer raises here and stops compacting: the functions
        # are all still intact where they were.
        self.device.relocate_function(name, target)
        entry.region = target
        self.minios.table.record_reload(name, self.clock.now)
        self.stats.moves += 1
        self.stats.frames_moved += len(target)
        return True

    def defrag_pass(self, max_moves: Optional[int] = None) -> DefragPassResult:
        """Run one compaction pass (bounded to *max_moves* relocations)."""
        result = DefragPassResult()
        budget = max_moves if max_moves is not None else float("inf")
        progress = True
        while progress and result.moves < budget:
            progress = False
            for entry, target in self._packed_targets():
                if result.moves >= budget:
                    break
                if self._relocate(entry, target):
                    result.moves += 1
                    result.frames_moved += len(target)
                    progress = True
        self.stats.passes += 1
        return result
