"""Bitonic sorting network hardware function.

Sorting networks map directly onto FPGA fabrics because every compare-exchange
is data-independent; the behavioural model executes the actual bitonic
network (not Python's ``sorted``) so the compare-exchange count in the cycle
model matches what the model really does.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionCategory, FunctionSpec, HardwareFunction


def bitonic_sort(values: Sequence[int]) -> List[int]:
    """Sort by explicitly running the bitonic network (length = power of two)."""
    length = len(values)
    if length == 0:
        return []
    if length & (length - 1):
        raise ValueError("bitonic networks need a power-of-two input length")
    data = list(values)
    k = 2
    while k <= length:
        j = k // 2
        while j > 0:
            for i in range(length):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    if (data[i] > data[partner]) == ascending:
                        data[i], data[partner] = data[partner], data[i]
            j //= 2
        k *= 2
    return data


class BitonicSortFunction(HardwareFunction):
    """Sort 64 unsigned 16-bit keys with a bitonic network."""

    KEYS = 64
    KEY_BYTES = 2

    def __init__(self, function_id: int = 10) -> None:
        spec = FunctionSpec(
            name="bitonic64",
            function_id=function_id,
            description="Bitonic sorting network over 64 uint16 keys",
            category=FunctionCategory.MISC,
            input_bytes=self.KEYS * self.KEY_BYTES,
            output_bytes=self.KEYS * self.KEY_BYTES,
            lut_estimate=1400,
            cycle_model=CycleModel(base_cycles=21, cycles_per_byte=0.75, pipeline_depth=21),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        block_bytes = self.KEYS * self.KEY_BYTES
        padded = data + b"\x00" * ((-len(data)) % block_bytes)
        out = bytearray()
        for start in range(0, len(padded), block_bytes):
            keys = struct.unpack(f"<{self.KEYS}H", padded[start : start + block_bytes])
            out.extend(struct.pack(f"<{self.KEYS}H", *bitonic_sort(list(keys))))
        return bytes(out)
