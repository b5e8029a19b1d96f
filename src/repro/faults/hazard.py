"""The executor-path hazard detector.

A corrupted frame is *silent* until something notices.  The scrubber notices
on its next pass; this detector notices the worse case — a function executing
while one of its frames no longer matches its stored CRC check word.  Real
hardware cannot see this (that is what makes the corruption silent); the
detector is the simulation's measurement instrument for it, which is exactly
the number the reliability experiment (E10) sweeps scrub periods against.

The executor keeps producing the output of the *clean* configuration — the
binding between a region and its compiled executor is set at configure time —
so hazard counting never perturbs results or schedules; it only observes.
"""

from __future__ import annotations

from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.frame import FrameRegion


class FrameHazardDetector:
    """Counts executions that ran over CRC-mismatching frames."""

    def __init__(self, memory: ConfigurationMemory) -> None:
        self.memory = memory
        self._frames = memory.frames.by_address
        self.hazard_executions = 0

    def observe_execution(self, region: FrameRegion) -> None:
        """Record one execution over *region*, counting it when a frame of
        the region fails its check word.

        Only a frame in the memory's ``suspect`` set can fail, so a clean
        memory answers at once and otherwise only the region's suspect
        frames are hashed.
        """
        suspect = self.memory.suspect
        if suspect and any(not self._frames[a].crc_ok for a in suspect.intersection(region)):
            self.hazard_executions += 1
