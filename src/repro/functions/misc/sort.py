"""Bitonic sorting network hardware function.

Sorting networks map directly onto FPGA fabrics because every compare-exchange
is data-independent.  The cycle model is the network's pipeline (depth and
per-byte throughput), not a count of compare-exchanges, so the behavioural
model sorts each block with ``sorted``: a sorting network's output is the
sorted keys.  ``tests/oracles/sort_reference.py`` keeps the network itself
as the output reference.
"""

from __future__ import annotations

import struct

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


class BitonicSortFunction(HardwareFunction):
    """Sort 64 unsigned 16-bit keys with a bitonic network."""

    KEYS = 64
    KEY_BYTES = 2

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="bitonic64",
            function_id=10,
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
            out.extend(struct.pack(f"<{self.KEYS}H", *sorted(keys)))
        return bytes(out)
