"""The frame-by-frame readback scrub, kept as the reference for ``Scrubber``.

:class:`repro.faults.scrubber.Scrubber` looks only at a window's suspect
frames and charges the clean ones as one product of a frame's check time.
:class:`ReferenceScrubber` is the walk it replaced: every frame of the window
in turn, one clock advance and one CRC test per frame, and a repair from the
golden image for each frame that fails.  ``tests/test_faults_properties.py``
runs one operation sequence on two memories, one scrubbed by each, and
requires every result, counter, cursor, clock instant and frame to be equal.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.faults.scrubber import CHECK_CYCLES_PER_BYTE, Scrubber, ScrubPassResult
from repro.fpga.config_port import CONFIG_CLOCK_HZ
from repro.sim.clock import ClockDomain


class ReferenceScrubber(Scrubber):
    """``Scrubber`` with the per-frame walk: it never reads ``suspect``."""

    def scrub_frame(self, address) -> bool:
        """Check (and repair if needed) one frame; True when repaired."""
        frame = self.memory.frames[address]
        self.clock.advance(
            ClockDomain("scrubber", CONFIG_CLOCK_HZ).cycles_to_ns(
                CHECK_CYCLES_PER_BYTE * frame.config_byte_length
            )
        )
        self.stats.frames_checked += 1
        if frame.crc_ok:
            return False
        self.stats.detected += 1
        golden = self.golden.payload_for(address)
        owner = self.memory.owner_of(address)
        self.memory.write_region((address,), (golden,), (zlib.crc32(golden),), owner=owner)
        self.clock.advance(self.device.port.write_time_ns(len(golden)))
        if frame.crc_ok and frame.to_config_bytes() == golden:
            self.stats.corrected += 1
            return True
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

    def scrub_region(self, region) -> ScrubPassResult:
        return self._scrub_addresses(region)

    def scrub_pass(self, max_frames: Optional[int] = None) -> ScrubPassResult:
        total = len(self._frames)
        count = total if max_frames is None else max(0, min(max_frames, total))
        window = []
        for _ in range(count):
            window.append(self._frames[self._cursor])
            self._cursor = (self._cursor + 1) % total
        result = self._scrub_addresses(window)
        self.stats.passes += 1
        return result
