"""The PCI microcontroller and its mini OS.

The microcontroller is the card's orchestrator: it accepts commands from the
host over PCI, fetches compressed bit-streams from the ROM, drives the
configuration module (windowed decompression into the FPGA configuration
port), stages input and output in the local RAM and moves them over the
interface bus to and from the fabric (timing only: the payload the function
gets is the host's), and runs the mini OS that decides *where* a requested function goes — the
free frame list, the frame replacement table and the frame replacement
policy of Section 2.5 of the paper.
"""

from repro.mcu.commands import CommandKind
from repro.mcu.config_module import ConfigurationModule, ReconfigurationReport
from repro.mcu.microcontroller import ExecutionResult, Microcontroller
from repro.mcu.minios import (
    FifoPolicy,
    FrameReplacementEntry,
    FrameReplacementTable,
    LfuPolicy,
    LruPolicy,
    MiniOs,
    RandomPolicy,
    ReplacementPolicy,
    build_policy,
)

__all__ = [
    "CommandKind",
    "ConfigurationModule",
    "ReconfigurationReport",
    "Microcontroller",
    "ExecutionResult",
    "FrameReplacementEntry",
    "FrameReplacementTable",
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "LfuPolicy",
    "RandomPolicy",
    "MiniOs",
    "build_policy",
]
