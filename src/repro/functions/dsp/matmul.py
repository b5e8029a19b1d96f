"""Fixed-size integer matrix multiplication hardware function."""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def matrix_multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Plain O(n^3) integer matrix product (no numpy; this *is* the model)."""
    rows = len(a)
    if rows == 0:
        return []
    inner = len(a[0])
    if any(len(row) != inner for row in a):
        raise ValueError("matrix A is ragged")
    if len(b) != inner:
        raise ValueError("inner dimensions do not match")
    cols = len(b[0])
    if any(len(row) != cols for row in b):
        raise ValueError("matrix B is ragged")
    result = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            a_ik = a[i][k]
            if a_ik == 0:
                continue
            row_b = b[k]
            row_r = result[i]
            for j in range(cols):
                row_r[j] += a_ik * row_b[j]
    return result


class MatMulFunction(HardwareFunction):
    """8x8 int16 matrix multiply (two operand matrices in, one int32 matrix out)."""

    DIMENSION = 8
    ELEMENT_BYTES = 2
    RESULT_ELEMENT_BYTES = 4

    def __init__(self) -> None:
        elements = self.DIMENSION * self.DIMENSION
        spec = FunctionSpec(
            name="matmul8",
            function_id=8,
            input_bytes=2 * elements * self.ELEMENT_BYTES,
            output_bytes=elements * self.RESULT_ELEMENT_BYTES,
            lut_estimate=1800,
            cycle_model=CycleModel(base_cycles=24, cycles_per_byte=1.5, pipeline_depth=8),
        )
        super().__init__(spec)

    def _unpack_matrix(self, data: bytes) -> List[List[int]]:
        elements = struct.unpack(f"<{self.DIMENSION * self.DIMENSION}h", data)
        return [
            list(elements[row * self.DIMENSION : (row + 1) * self.DIMENSION])
            for row in range(self.DIMENSION)
        ]

    def behaviour(self, data: bytes) -> bytes:
        """Multiply each pair of packed 8x8 int16 matrices in *data*.

        Eight int16 products can reach 2**33, so sums wrap to two's-complement
        32 bits, as the int32 hardware accumulator does.
        """
        pair_bytes = 2 * self.DIMENSION * self.DIMENSION * self.ELEMENT_BYTES
        padded = data + b"\x00" * ((-len(data)) % pair_bytes)
        out = bytearray()
        matrix_bytes = pair_bytes // 2
        for start in range(0, len(padded), pair_bytes):
            a = self._unpack_matrix(padded[start : start + matrix_bytes])
            b = self._unpack_matrix(padded[start + matrix_bytes : start + pair_bytes])
            product = matrix_multiply(a, b)
            for row in product:
                for value in row:
                    out.extend(struct.pack("<I", value & 0xFFFFFFFF))
        return bytes(out)
