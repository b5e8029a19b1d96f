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

from collections import defaultdict
from typing import Dict

from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.frame import FrameRegion


class FrameHazardDetector:
    """Counts executions that ran over CRC-mismatching frames."""

    def __init__(self, memory: ConfigurationMemory) -> None:
        self.memory = memory
        self.checks = 0
        self.hazard_executions = 0
        self.per_function: Dict[str, int] = defaultdict(int)
        self.last_was_hazard = False

    def observe_execution(self, name: str, region: FrameRegion) -> bool:
        """Record one execution of *name*; True when a frame was corrupt."""
        self.checks += 1
        frames = self.memory.frames
        for address in region:
            if not frames[address].crc_ok:
                self.hazard_executions += 1
                self.per_function[name] += 1
                self.last_was_hazard = True
                return True
        self.last_was_hazard = False
        return False

    def reset(self) -> None:
        self.checks = 0
        self.hazard_executions = 0
        self.per_function.clear()
        self.last_was_hazard = False

    def describe(self) -> str:
        return (
            f"FrameHazardDetector({self.hazard_executions}/{self.checks} "
            f"executions over corrupted frames)"
        )
