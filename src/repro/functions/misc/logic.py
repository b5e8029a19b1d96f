"""Small logic functions backed by real technology-mapped netlists.

These are the functions the fabric genuinely evaluates LUT by LUT (via
:class:`~repro.fpga.executor.NetlistExecutor`); their reference behaviours are
defined with plain Python arithmetic, so the tests can prove that the
configured frames implement the intended logic.
"""

from __future__ import annotations

from typing import Optional

from repro.fpga.executor import CycleModel
from repro.fpga.geometry import FabricGeometry
from repro.fpga.netlist import Netlist
from repro.functions.base import FunctionSpec, HardwareFunction
from repro.functions.netgen import (
    PARITY_INPUT_BITS,
    build_adder_netlist,
    build_parity_netlist,
    build_popcount_netlist,
)


class ParityFunction(HardwareFunction):
    """32-bit parity: one output byte that is 0x01 when the parity is odd."""

    INPUT_BITS = PARITY_INPUT_BITS

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="parity32",
            function_id=12,
            input_bytes=self.INPUT_BITS // 8,
            output_bytes=1,
            lut_estimate=16,
            cycle_model=CycleModel(base_cycles=1, cycles_per_byte=0.0),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        word = int.from_bytes(data[: self.INPUT_BITS // 8].ljust(self.INPUT_BITS // 8, b"\x00"), "little")
        parity = bin(word).count("1") & 1
        return bytes([parity])

    def build_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        return build_parity_netlist()


class AdderFunction(HardwareFunction):
    """8-bit ripple-carry adder: 2 input bytes in, sum byte + carry byte out."""

    WIDTH = 8

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="adder8",
            function_id=13,
            input_bytes=2,
            output_bytes=2,
            lut_estimate=16,
            cycle_model=CycleModel(base_cycles=1, cycles_per_byte=0.0),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        padded = data[:2].ljust(2, b"\x00")
        total = padded[0] + padded[1]
        # Bit layout mirrors the netlist's outputs: sum bits 0..7 then carry;
        # packed LSB-first that is simply [sum, carry].
        return bytes([total & 0xFF, (total >> 8) & 0x1])

    def build_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        return build_adder_netlist(self.WIDTH)


class PopcountFunction(HardwareFunction):
    """8-bit population count: one input byte in, the count (0..8) out."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="popcount8",
            function_id=14,
            input_bytes=1,
            output_bytes=1,
            lut_estimate=12,
            cycle_model=CycleModel(base_cycles=1, cycles_per_byte=0.0),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        value = data[0] if data else 0
        return bytes([bin(value).count("1")])

    def build_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        return build_popcount_netlist()
