"""Radix-2 FFT hardware function.

The FFT is implemented from scratch (iterative, in-place, bit-reversed input
ordering) over complex floats; the hardware function exposes it on packed
little-endian int16 real samples and returns interleaved int16 real/imaginary
pairs, scaled per stage to avoid overflow — mirroring a streaming fixed-point
FFT core.
"""

from __future__ import annotations

import cmath
import struct
from typing import List, Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def _bit_reverse_indices(length: int) -> List[int]:
    bits = length.bit_length() - 1
    indices = []
    for index in range(length):
        reversed_index = 0
        for bit in range(bits):
            if index & (1 << bit):
                reversed_index |= 1 << (bits - 1 - bit)
        indices.append(reversed_index)
    return indices


def fft_radix2(samples: Sequence[complex]) -> List[complex]:
    """In-place iterative radix-2 decimation-in-time FFT.

    The length must be a power of two.
    """
    length = len(samples)
    if length == 0:
        return []
    if length & (length - 1):
        raise ValueError("FFT length must be a power of two")
    order = _bit_reverse_indices(length)
    data = [complex(samples[index]) for index in order]
    span = 2
    while span <= length:
        half = span // 2
        root = cmath.exp(-2j * cmath.pi / span)
        for start in range(0, length, span):
            twiddle = 1 + 0j
            for offset in range(half):
                even = data[start + offset]
                odd = data[start + offset + half] * twiddle
                data[start + offset] = even + odd
                data[start + offset + half] = even - odd
                twiddle *= root
        span *= 2
    return data


class FftFunction(HardwareFunction):
    """Fixed 256-point FFT over int16 samples."""

    POINTS = 256
    SAMPLE_BYTES = 2

    def __init__(self, function_id: int = 7) -> None:
        spec = FunctionSpec(
            name="fft256",
            function_id=function_id,
            input_bytes=self.POINTS * self.SAMPLE_BYTES,
            output_bytes=self.POINTS * self.SAMPLE_BYTES * 2,
            lut_estimate=2000,
            cycle_model=CycleModel(base_cycles=64, cycles_per_byte=2.5, pipeline_depth=24),
        )
        super().__init__(spec)

    @staticmethod
    def _saturate(value: float) -> int:
        return max(-32768, min(32767, int(round(value))))

    def behaviour(self, data: bytes) -> bytes:
        """Transform each 256-sample block; shorter blocks are zero-padded."""
        block_bytes = self.POINTS * self.SAMPLE_BYTES
        padded = data + b"\x00" * ((-len(data)) % block_bytes)
        out = bytearray()
        for start in range(0, len(padded), block_bytes):
            block = padded[start : start + block_bytes]
            samples = struct.unpack(f"<{self.POINTS}h", block)
            spectrum = fft_radix2([complex(sample, 0.0) for sample in samples])
            # Per-stage scaling: divide by N so int16 never overflows.
            for value in spectrum:
                out.extend(struct.pack("<h", self._saturate(value.real / self.POINTS)))
                out.extend(struct.pack("<h", self._saturate(value.imag / self.POINTS)))
        return bytes(out)
