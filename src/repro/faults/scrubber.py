"""Readback scrubbing: detect and repair corrupted configuration frames.

The scrubber is a mini-OS service.  Each pass walks a window of frames in
raster order (a rotating cursor, so periodic partial passes cover the whole
device), recomputes every frame's CRC-32 over its live readback, and compares
it with the frame's stored check word.  A mismatch is a *detected*
corruption; repair rewrites the frame from the golden image captured at
configure time and verifies the rewrite (a repaired frame must read back
byte-identical to golden).

Timing: checking a frame charges :data:`CHECK_CYCLES_PER_BYTE` configuration-
clock cycles per configuration byte (modelling an internal readback port that
is wider/faster than the external SelectMAP interface), and a repair
additionally charges the external port's write time for the frame.  Scrub
work therefore steals real card time — the throughput/reliability trade-off
the reliability experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.golden import GoldenImageStore
from repro.fpga.config_port import CONFIG_CLOCK_HZ
from repro.fpga.device import FPGADevice
from repro.sim.clock import Clock, ClockDomain

#: Readback-port cycles to check one configuration byte.
CHECK_CYCLES_PER_BYTE = 0.25


@dataclass
class ScrubStatistics:
    """Counters the scrubber accumulates over its lifetime."""

    passes: int = 0
    frames_checked: int = 0
    detected: int = 0
    corrected: int = 0
    uncorrectable: int = 0


@dataclass
class ScrubPassResult:
    """What one scrub pass (or partial pass) found and fixed."""

    frames_checked: int = 0
    detected: int = 0
    corrected: int = 0
    uncorrectable: int = 0


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
        self.domain = ClockDomain("scrubber", CONFIG_CLOCK_HZ)
        self.stats = ScrubStatistics()
        self._frames = device.geometry.all_frames()
        self._cursor = 0

    # ------------------------------------------------------------ one frame
    def scrub_frame(self, address) -> bool:
        """Check (and repair if needed) one frame; True when repaired."""
        frame = self.memory.frames[address]
        self.clock.advance(
            self.domain.cycles_to_ns(CHECK_CYCLES_PER_BYTE * frame.config_byte_length)
        )
        self.stats.frames_checked += 1
        if frame.crc_ok:
            return False
        self.stats.detected += 1
        golden = self.golden.payload_for(address)
        owner = self.memory.owner_of(address)
        # Repair through the frame-write path (refreshes the check word) and
        # charge the configuration port's write time for the frame.
        self.memory.write_frame(address, golden, owner=owner)
        self.clock.advance(self.device.port.write_time_ns(len(golden)))
        if frame.crc_ok and frame.to_config_bytes() == golden:
            self.stats.corrected += 1
            return True
        # Only reachable when the golden image itself is non-canonical —
        # repair converged to the canonical form but cannot match the stored
        # bytes.  Count it instead of looping forever.
        self.stats.uncorrectable += 1
        return False

    def _scrub_addresses(self, addresses) -> ScrubPassResult:
        """Check-and-repair *addresses*, returning what this pass found and fixed."""
        result = ScrubPassResult()
        detected_before = self.stats.detected
        corrected_before = self.stats.corrected
        uncorrectable_before = self.stats.uncorrectable
        for address in addresses:
            self.scrub_frame(address)
            result.frames_checked += 1
        result.detected = self.stats.detected - detected_before
        result.corrected = self.stats.corrected - corrected_before
        result.uncorrectable = self.stats.uncorrectable - uncorrectable_before
        return result

    # -------------------------------------------------------- demand scrub
    def scrub_region(self, region) -> ScrubPassResult:
        """Check (and repair) exactly the frames of *region*.

        The demand-scrub ("readback-before-use") mode: the microcontroller
        calls this on a function's region right before executing it, which
        closes the hazard window completely — at the price of paying the
        region's check time on every single request.  This is the limiting
        case of the periodic scrub as the period goes to zero.
        """
        return self._scrub_addresses(region)

    # ------------------------------------------------------------ full pass
    def scrub_pass(self, max_frames: Optional[int] = None) -> ScrubPassResult:
        """Walk up to *max_frames* frames from the rotating cursor.

        ``None`` walks the whole device.  Partial passes resume where the
        previous one stopped, so a periodic service with a small window still
        covers every frame within ``frame_count / max_frames`` periods.
        """
        total = len(self._frames)
        count = total if max_frames is None else max(0, min(max_frames, total))
        window = []
        for _ in range(count):
            window.append(self._frames[self._cursor])
            self._cursor = (self._cursor + 1) % total
        result = self._scrub_addresses(window)
        self.stats.passes += 1
        return result

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        stats = self.stats
        return (
            f"Scrubber: {stats.passes} passes, {stats.frames_checked} frames "
            f"checked, {stats.detected} detected, {stats.corrected} corrected, "
            f"{stats.uncorrectable} uncorrectable"
        )
