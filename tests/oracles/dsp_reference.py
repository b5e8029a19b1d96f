"""The seed's step-by-step DSP models, kept as the oracles the bank's fast
datapaths are held bit-identical to (``tests/test_functions_dsp_misc.py``):

* the direct-form FIR, one multiply-accumulate per tap and a saturation per
  sample, which ``FirFilter.filter_bytes``'s one big-integer convolution
  matches;
* the radix-2 FFT, one Python butterfly per pair and two ``struct.pack`` per
  output value, which ``fft_radix2`` and ``FftFunction.behaviour`` match to
  the bit: the fast forms perform the same float operations on the same
  operands in the same order.
"""

from __future__ import annotations

import cmath
import struct
from typing import List, Sequence

from repro.functions.dsp.fir import FirFilter


def _saturate(value: int) -> int:
    return max(-32768, min(32767, value))


class ReferenceFirFilter(FirFilter):
    """``FirFilter`` with the seed's direct-form datapath."""

    def __init__(self, coefficients: Sequence[int]) -> None:
        super().__init__(coefficients)
        self.coefficients = list(coefficients)

    def filter_samples(self, samples: Sequence[int]) -> List[int]:
        """Filter a sample vector (zero initial state)."""
        out: List[int] = []
        for index in range(len(samples)):
            accumulator = 0
            for tap, coefficient in enumerate(self.coefficients):
                if index - tap >= 0:
                    accumulator += coefficient * samples[index - tap]
            out.append(_saturate(accumulator >> 15))
        return out

    def filter_bytes(self, data: bytes) -> bytes:
        """Filter little-endian int16 samples packed in *data*."""
        padded = data + b"\x00" * (len(data) % self.SAMPLE_BYTES)
        count = len(padded) // self.SAMPLE_BYTES
        samples = list(struct.unpack(f"<{count}h", padded)) if count else []
        filtered = self.filter_samples(samples)
        return struct.pack(f"<{len(filtered)}h", *filtered) if filtered else b""


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


def reference_fft_radix2(samples: Sequence[complex]) -> List[complex]:
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


def reference_fft256(data: bytes, points: int = 256) -> bytes:
    """The seed's ``FftFunction.behaviour``: each *points*-sample block
    (shorter blocks zero-padded) transformed, scaled by 1/N and saturated to
    interleaved int16 real/imaginary pairs."""
    block_bytes = points * 2
    padded = data + b"\x00" * ((-len(data)) % block_bytes)
    out = bytearray()
    for start in range(0, len(padded), block_bytes):
        block = padded[start : start + block_bytes]
        samples = struct.unpack(f"<{points}h", block)
        spectrum = reference_fft_radix2([complex(sample, 0.0) for sample in samples])
        for value in spectrum:
            out.extend(struct.pack("<h", max(-32768, min(32767, int(round(value.real / points))))))
            out.extend(struct.pack("<h", max(-32768, min(32767, int(round(value.imag / points))))))
    return bytes(out)
