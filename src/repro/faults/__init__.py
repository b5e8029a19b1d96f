"""Fault injection, detection and repair for the configuration memory.

The co-processor keeps its entire behaviour in configuration memory — which
is exactly the part that breaks in deployment: radiation-induced bit upsets
in frames (SEU) and whole-card failures.  This package models both and the
machinery that survives them:

* :class:`FaultSpec` / :class:`FaultInjector` — pluggable stochastic upset
  processes (Poisson per-frame-bit, targeted-frame) driven
  by :class:`~repro.sim.rand.SeededRandom`, injectable into a single card or
  scheduled as kernel processes across a whole fleet.
* :class:`GoldenImageStore` — the clean readback of every configured frame,
  captured at configure time, that repair restores from.
* :class:`Scrubber` — a mini-OS readback scrub service: walk configuration
  memory, recompute each suspect frame's CRC-32 against its stored check
  word (a frame no write or upset made suspect matches by construction), and
  rewrite mismatching frames from the golden image.
* :class:`FrameHazardDetector` — the executor-path instrument counting
  "function executed on corrupted frame" events: the simulation's omniscient
  view of *silent* corruption (the card itself only learns of corruption when
  the scrubber reaches the frame).

Everything is opt-in: a device without these hooks pays nothing.
"""

from repro.faults.golden import GoldenImageStore
from repro.faults.hazard import FrameHazardDetector
from repro.faults.injector import FaultInjector
from repro.faults.scrubber import Scrubber, ScrubPassResult, ScrubStatistics
from repro.faults.spec import FAULT_PROCESSES, FaultSpec

__all__ = [
    "FAULT_PROCESSES",
    "FaultInjector",
    "FaultSpec",
    "FrameHazardDetector",
    "GoldenImageStore",
    "ScrubPassResult",
    "ScrubStatistics",
    "Scrubber",
]
