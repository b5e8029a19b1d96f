"""The microcontroller's mini OS.

Section 2.5 of the paper describes the three data structures implemented
here:

* the **Free Frame List** — frames "currently not used to realise any logic
  and ... thus potentially programmable without any intervention to the
  functions currently being executed";
* the **Frame Replacement Table** — "the list of frames occupied by each
  algorithm present on the FPGA along with a time stamp specifying the last
  moment at which it was accessed" (so the Free Frame List is its
  complement, and :meth:`MiniOs.free_frames` computes it from the table);
* the **Frame Replacement Policy** — the paper evicts the algorithm with the
  oldest time stamp (least recently used); the policy is pluggable here so
  experiment E3 can compare it with FIFO, LFU and Random.  A policy ranks
  the table's entries and reads nothing else: not the clock, and not the
  requests still to come, which no controller can know.  E3's clairvoyant
  row installs its farthest-next-use policy from the benchmark side
  (``copro.minios.policy = ...``).
"""

from repro.mcu.minios.defrag import DefragPassResult, Defragmenter, DefragStatistics
from repro.mcu.minios.replacement import FrameReplacementEntry, FrameReplacementTable
from repro.mcu.minios.policies import (
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    build_policy,
)
from repro.mcu.minios.minios import EvictionDecision, MiniOs

__all__ = [
    "DefragPassResult",
    "DefragStatistics",
    "Defragmenter",
    "FrameReplacementEntry",
    "FrameReplacementTable",
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "LfuPolicy",
    "RandomPolicy",
    "build_policy",
    "MiniOs",
    "EvictionDecision",
]
