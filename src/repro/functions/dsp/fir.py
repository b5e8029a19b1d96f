"""Fixed-point FIR filter hardware function."""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


class FirFilter:
    """Direct-form FIR filter over signed 16-bit samples.

    The accumulator uses Q15 coefficient scaling (coefficients are integers
    interpreted as value/32768) and saturates the output to int16, which is
    how a fixed-point hardware datapath behaves.
    """

    SAMPLE_BYTES = 2

    def __init__(self, coefficients: Sequence[int]) -> None:
        if not coefficients:
            raise ValueError("a FIR filter needs at least one coefficient")
        for coefficient in coefficients:
            if not -32768 <= coefficient <= 32767:
                raise ValueError("coefficients must fit in int16 (Q15)")
        self.coefficients = list(coefficients)

    @staticmethod
    def _saturate(value: int) -> int:
        return max(-32768, min(32767, value))

    def filter_samples(self, samples: Sequence[int]) -> List[int]:
        """Filter a sample vector (zero initial state)."""
        out: List[int] = []
        for index in range(len(samples)):
            accumulator = 0
            for tap, coefficient in enumerate(self.coefficients):
                if index - tap >= 0:
                    accumulator += coefficient * samples[index - tap]
            out.append(self._saturate(accumulator >> 15))
        return out

    def filter_bytes(self, data: bytes) -> bytes:
        """Filter little-endian int16 samples packed in *data*."""
        padded = data + b"\x00" * (len(data) % self.SAMPLE_BYTES)
        count = len(padded) // self.SAMPLE_BYTES
        samples = list(struct.unpack(f"<{count}h", padded)) if count else []
        filtered = self.filter_samples(samples)
        return struct.pack(f"<{len(filtered)}h", *filtered) if filtered else b""


#: A 16-tap symmetric low-pass filter (Q15), deterministic and non-trivial.
DEFAULT_COEFFICIENTS = [
    -120, -340, -510, 260, 2210, 5340, 8480, 9880,
    9880, 8480, 5340, 2210, 260, -510, -340, -120,
]


class FirFunction(HardwareFunction):
    """16-tap FIR filter as an on-demand hardware function."""

    def __init__(self, function_id: int = 6) -> None:
        spec = FunctionSpec(
            name="fir16",
            function_id=function_id,
            input_bytes=256,
            output_bytes=256,
            lut_estimate=800,
            cycle_model=CycleModel(base_cycles=16, cycles_per_byte=0.5, pipeline_depth=16),
        )
        super().__init__(spec)
        self.filter = FirFilter(DEFAULT_COEFFICIENTS)

    def behaviour(self, data: bytes) -> bytes:
        return self.filter.filter_bytes(data)
