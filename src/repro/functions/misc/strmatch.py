"""Systolic string-matching hardware function.

Counts occurrences of a configuration-time pattern in the input stream — the
kind of deep-packet-inspection primitive an IPSec/IDS co-processor offloads.
The behavioural model is a simple shift-compare pipeline (what the systolic
array does), not a call to :meth:`bytes.count`, so overlapping matches are
counted the way the hardware would count them.
"""

from __future__ import annotations

import struct

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def count_occurrences(haystack: bytes, needle: bytes) -> int:
    """Count (possibly overlapping) occurrences of *needle* in *haystack*."""
    if not needle:
        return 0
    count = 0
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == needle:
            count += 1
    return count


#: The default pattern programmed into the bank's matcher.
DEFAULT_PATTERN = b"AGILE"


class StringMatchFunction(HardwareFunction):
    """Count occurrences of a fixed pattern; 4-byte big-endian count out."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="strmatch",
            function_id=11,
            input_bytes=256,
            output_bytes=4,
            lut_estimate=350,
            cycle_model=CycleModel(base_cycles=8, cycles_per_byte=1.0, pipeline_depth=len(DEFAULT_PATTERN)),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return struct.pack(">I", count_occurrences(data, DEFAULT_PATTERN))
