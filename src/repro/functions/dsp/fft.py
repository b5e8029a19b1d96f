"""Radix-2 FFT hardware function.

An iterative decimation-in-time FFT over complex floats, one stage at a time:
each stage gathers its butterflies' operands in one step and forms every
``even + odd * twiddle`` and ``even - odd * twiddle`` with ``map``.  The
hardware function exposes it on packed little-endian int16 real samples and
returns interleaved int16 real/imaginary pairs, scaled by 1/N so they never
overflow — mirroring a streaming fixed-point FFT core.

Every butterfly performs the same float operations on the same operands in
the same order as the seed's in-place loop, so the output is bit-identical
(the multiply by the unit twiddle is kept: ``(a+bj)*(1+0j)`` can flip the
sign of a zero).  That loop is ``tests/oracles/dsp_reference.py``'s
``reference_fft_radix2``; ``tests/test_functions_dsp_misc.py`` holds the two
equal to the bit under hypothesis.
"""

from __future__ import annotations

import cmath
import functools
import struct
from itertools import repeat
from operator import add, attrgetter, itemgetter, mul, sub
from typing import Callable, List, Sequence, Tuple

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


#: Added to a part x, rounds it to N * round(x / N) for N = 256 (see
#: ``FftFunction.behaviour``).
_ROUNDER = 1.5 * 2.0**52 * 256


@functools.lru_cache(maxsize=None)
def _plan(length: int) -> Tuple[List[Tuple[Callable, List[complex]]], Callable]:
    """``(stages, output_order)`` for a power-of-two *length* (at least 2).

    Each stage is ``(gather, twiddles)``: *gather* picks, from the previous
    stage's output (sums then differences; the samples for the first stage),
    the stage's even operands then its odd ones in butterfly order, and
    *twiddles* is each butterfly's twiddle, built by the same repeated
    ``twiddle *= root`` products as the in-place loop.  *output_order*
    puts the last stage's output in frequency order.
    """
    order = [0]
    while len(order) < length:  # the bit-reversal permutation
        order = [2 * index for index in order] + [2 * index + 1 for index in order]
    where = order  # where[i]: the slot holding element i of the in-place array
    stages = []
    span = 2
    while span <= length:
        half = span // 2
        root = cmath.exp(-2j * cmath.pi / span)
        twiddles = []
        twiddle = 1 + 0j
        for _ in range(half):
            twiddles.append(twiddle)
            twiddle *= root
        evens = [start + offset for start in range(0, length, span) for offset in range(half)]
        pairs = evens + [index + half for index in evens]
        stages.append((itemgetter(*[where[index] for index in pairs]), twiddles * (length // span)))
        where = [0] * length
        for slot, index in enumerate(pairs):
            where[index] = slot
        span *= 2
    return stages, itemgetter(*where)


def fft_radix2(samples: Sequence[complex]) -> List[complex]:
    """Iterative radix-2 decimation-in-time FFT.

    The length must be a power of two.
    """
    length = len(samples)
    if length == 0:
        return []
    if length & (length - 1):
        raise ValueError("FFT length must be a power of two")
    if length == 1:
        return [complex(samples[0])]
    stages, output_order = _plan(length)
    half = length // 2
    data = list(map(complex, samples))
    for gather, twiddles in stages:
        operands = gather(data)
        evens = operands[:half]
        products = list(map(mul, operands[half:], twiddles))
        data = [*map(add, evens, products), *map(sub, evens, products)]
    return list(output_order(data))


class FftFunction(HardwareFunction):
    """Fixed 256-point FFT over int16 samples."""

    POINTS = 256
    SAMPLE_BYTES = 2

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="fft256",
            function_id=7,
            input_bytes=self.POINTS * self.SAMPLE_BYTES,
            output_bytes=self.POINTS * self.SAMPLE_BYTES * 2,
            lut_estimate=2000,
            cycle_model=CycleModel(base_cycles=64, cycles_per_byte=2.5, pipeline_depth=24),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        """Transform each 256-sample block; shorter blocks are zero-padded."""
        points = self.POINTS
        padded = data + b"\x00" * ((-len(data)) % (points * self.SAMPLE_BYTES))
        if not padded:
            return b""
        samples = struct.unpack(f"<{len(padded) // self.SAMPLE_BYTES}h", padded)
        parts = [0.0] * (2 * len(samples))
        for start in range(0, len(samples), points):
            spectrum = fft_radix2(samples[start : start + points])
            parts[2 * start : 2 * (start + points) : 2] = map(attrgetter("real"), spectrum)
            parts[2 * start + 1 : 2 * (start + points) : 2] = map(attrgetter("imag"), spectrum)
        # Scale by 1/N so int16 never overflows: round(x / N) for every part
        # at once.  x + 1.5 * 2**52 * N lies where consecutive doubles are N
        # apart, so the sum rounds x to the nearest multiple of N, ties to
        # even, and the low 32 bits of its mantissa hold round(x / N).
        rounded = struct.pack(f"<{len(parts)}d", *map(add, parts, repeat(_ROUNDER)))
        values = struct.unpack("<" + "i4x" * len(parts), rounded)
        try:
            return struct.pack(f"<{len(values)}h", *values)
        except struct.error:  # rounding reached +32768 (rails alternating)
            return struct.pack(f"<{len(values)}h", *[-32768 if value < -32768 else 32767 if value > 32767 else value for value in values])
