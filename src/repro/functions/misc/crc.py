"""CRC-32 hardware function.

Computes the same :func:`repro.bitstream.crc.crc32` the bit-stream checker
uses; the test suite holds it bit-compatible with the byte-at-a-time table
model of the hardware engine (``tests/oracles/crc_table.py``).
"""

from __future__ import annotations

from repro.bitstream.crc import crc32
from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


class Crc32Function(HardwareFunction):
    """CRC-32 (IEEE) over the whole input buffer; 4-byte big-endian result."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="crc32",
            function_id=9,
            input_bytes=64,
            output_bytes=4,
            lut_estimate=220,
            cycle_model=CycleModel(base_cycles=4, cycles_per_byte=1.0, pipeline_depth=2),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return crc32(data).to_bytes(4, "big")
