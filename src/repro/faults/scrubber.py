"""Readback scrubbing: detect and repair corrupted configuration frames.

The scrubber is a mini-OS service.  Each pass walks a window of frames in
raster order (a rotating cursor, so periodic partial passes cover the whole
device), recomputes every frame's CRC-32 over its live readback, and compares
it with the frame's stored check word.  A mismatch is a *detected*
corruption; repair rewrites the frame from the golden image captured at
configure time and verifies the rewrite (a repaired frame must read back
byte-identical to golden).

Only a frame in the memory's ``suspect`` set can mismatch (see
:mod:`repro.fpga.config_memory`), so a window's walk looks at its suspect
frames alone, in window order, and drops from the set each one it finds
clean; the others read clean by construction.

Timing: checking a frame charges :data:`CHECK_CYCLES_PER_BYTE` configuration-
clock cycles per configuration byte (modelling an internal readback port that
is wider/faster than the external SelectMAP interface), and a repair
additionally charges the external port's write time for the frame.  Every
frame has the same length, so a check costs one whole-nanosecond ``check_ns``:
the walk advances the clock by ``check_ns`` times the frames up to each
suspect frame, repairs it at the instant a frame-by-frame walk would, and
charges the rest of the window in one product.  Scrub work therefore steals
real card time — the throughput/reliability trade-off the reliability
experiment sweeps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.faults.golden import GoldenImageStore
from repro.fpga.config_port import CONFIG_CLOCK_HZ
from repro.fpga.device import FPGADevice
from repro.sim.clock import Clock, ClockDomain

#: Readback-port cycles to check one configuration byte.
CHECK_CYCLES_PER_BYTE = 0.25


@dataclass
class ScrubPassResult:
    """What one scrub pass (or partial pass) found and fixed."""

    frames_checked: int = 0
    detected: int = 0
    corrected: int = 0
    uncorrectable: int = 0


@dataclass
class ScrubStatistics(ScrubPassResult):
    """The scrubber's lifetime sums of its passes' results, and the passes."""

    passes: int = 0


class Scrubber:
    """Periodic readback scrub over a device's configuration memory."""

    def __init__(
        self,
        device: FPGADevice,
        golden: GoldenImageStore,
        clock: Optional[Clock] = None,
    ) -> None:
        self.device = device
        self.memory = device.memory
        self.golden = golden
        self.clock = clock if clock is not None else device.clock
        self.stats = ScrubStatistics()
        self._frames = device.geometry.all_frames()
        self._raster = {address: index for index, address in enumerate(self._frames)}
        self._cursor = 0
        self._check_ns = ClockDomain("scrubber", CONFIG_CLOCK_HZ).cycles_to_ns(
            CHECK_CYCLES_PER_BYTE * device.geometry.frame_config_bytes
        )

    def _walk(self, count: int, suspects) -> ScrubPassResult:
        """Check a window of *count* frames whose suspect frames are
        *suspects*, ``(offset in window, address)`` pairs in window order."""
        clock = self.clock
        memory = self.memory
        result = ScrubPassResult(frames_checked=count)
        done = 0
        for offset, address in suspects:
            clock.advance((offset + 1 - done) * self._check_ns)
            done = offset + 1
            frame = memory.frames.by_address[address]
            if frame.crc_ok:
                memory.suspect.discard(address)
                continue
            result.detected += 1
            golden = self.golden.payload_for(address)
            # Repair through the frame-write path (with the golden image's
            # check word) and charge the configuration port's write time for
            # the frame.
            memory.write_region((address,), (golden,), (zlib.crc32(golden),), owner=memory.owner_of(address))
            clock.advance(self.device.port.write_time_ns(len(golden)))
            if frame.crc_ok and frame.to_config_bytes() == golden:
                result.corrected += 1
            else:
                # A repair that does not read back as the golden image: the
                # frame stays suspect and the next pass counts it again
                # instead of looping forever.  A frame stores every write as
                # written, so no repair ends here today.
                result.uncorrectable += 1
        clock.advance((count - done) * self._check_ns)
        stats = self.stats
        stats.frames_checked += count
        stats.detected += result.detected
        stats.corrected += result.corrected
        stats.uncorrectable += result.uncorrectable
        return result

    # -------------------------------------------------------- demand scrub
    def scrub_region(self, region) -> ScrubPassResult:
        """Check (and repair) exactly the frames of *region*, in its order.

        The demand-scrub ("readback-before-use") mode: the microcontroller
        calls this on a function's region right before executing it, which
        closes the hazard window completely — at the price of paying the
        region's check time on every single request.  This is the limiting
        case of the periodic scrub as the period goes to zero.
        """
        suspect = self.memory.suspect
        return self._walk(len(region), [(i, a) for i, a in enumerate(region) if a in suspect])

    # ------------------------------------------------------------ full pass
    def scrub_pass(self, max_frames: Optional[int] = None) -> ScrubPassResult:
        """Walk up to *max_frames* frames from the rotating cursor.

        ``None`` walks the whole device.  Partial passes resume where the
        previous one stopped, so a periodic service with a small window still
        covers every frame within ``frame_count / max_frames`` periods.
        """
        total = len(self._frames)
        count = total if max_frames is None else max(0, min(max_frames, total))
        cursor = self._cursor
        offsets = {(self._raster[a] - cursor) % total: a for a in self.memory.suspect}
        suspects = sorted((offset, a) for offset, a in offsets.items() if offset < count)
        self._cursor = (cursor + count) % total
        result = self._walk(count, suspects)
        self.stats.passes += 1
        return result
