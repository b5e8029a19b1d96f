"""Modular exponentiation (the RSA primitive) as a hardware function.

Public-key operations were the other classic target of FPGA crypto
co-processors: a 512/1024-bit modular exponentiation is far too slow on a
late-90s host CPU but maps naturally onto a Montgomery multiplier pipeline.
The behavioural model uses square-and-multiply over a fixed public exponent
and configuration-time modulus.
"""

from __future__ import annotations

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def modular_exponentiation(base: int, exponent: int, modulus: int) -> int:
    """Square-and-multiply modular exponentiation (no library shortcuts)."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    result = 1 % modulus
    base %= modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


#: A fixed 512-bit odd modulus (deterministically generated, not a real key).
DEFAULT_MODULUS = int.from_bytes(
    bytes((i * 37 + 11) & 0xFF for i in range(64)), "big"
) | (1 << 511) | 1

#: The common RSA public exponent.
DEFAULT_EXPONENT = 65537


class ModExpFunction(HardwareFunction):
    """512-bit modular exponentiation with a configuration-time modulus."""

    OPERAND_BYTES = 64

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="modexp512",
            function_id=5,
            input_bytes=self.OPERAND_BYTES,
            output_bytes=self.OPERAND_BYTES,
            lut_estimate=3200,
            # ~ bit-serial Montgomery: O(bits^2) cycles dominated by the fixed
            # exponentiation, so the per-byte term is small.
            cycle_model=CycleModel(base_cycles=9000, cycles_per_byte=4.0, pipeline_depth=32),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        """Interpret each 64-byte block as a big-endian operand and exponentiate."""
        padded = data + b"\x00" * ((-len(data)) % self.OPERAND_BYTES)
        out = bytearray()
        for start in range(0, len(padded), self.OPERAND_BYTES):
            operand = int.from_bytes(padded[start : start + self.OPERAND_BYTES], "big")
            result = modular_exponentiation(operand, DEFAULT_EXPONENT, DEFAULT_MODULUS)
            out.extend(result.to_bytes(self.OPERAND_BYTES, "big"))
        return bytes(out)
