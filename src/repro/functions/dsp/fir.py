"""Fixed-point FIR filter hardware function.

The filter is one exact integer convolution: the samples and the taps are
packed into two Python integers, one 64-bit lane per value (Kronecker
substitution), so a single big-integer multiply forms every output's
multiply-accumulate at once.  The seed's direct-form model, one
multiply-accumulate per tap and a saturation per sample, is
``tests/oracles/dsp_reference.py``'s ``ReferenceFirFilter``;
``tests/test_functions_dsp_misc.py`` holds the two equal under hypothesis,
at the int16 rails and for any taps.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction

_LANE_BITS = 64
#: Added to every sample so its lane is non-negative.
_SAMPLE_BIAS = 1 << 15
#: Added to every output lane so no lane borrows from the next.
_LANE_BIAS = 1 << (_LANE_BITS - 1)


class FirFilter:
    """FIR filter over signed 16-bit samples.

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
        if len(coefficients) > 65535:
            raise ValueError("at most 65 535 taps fit the convolution's 64-bit lanes")
        # Twice each tap: a lane then holds 2 * acc, whose bits 16..47 are
        # acc >> 15.
        self._taps = sum(2 * coefficient << (_LANE_BITS * tap) for tap, coefficient in enumerate(coefficients))
        # Lane n of packed samples * taps is 2 * acc_n + 2**16 * C_n, where
        # C_n sums the taps that reach a sample (all of them from lane
        # len - 1 on).  Adding 2**63 - 2**16 * C_n makes every lane
        # 2 * acc_n + 2**63, inside [0, 2**64), so no lane borrows from or
        # carries into the next: _lane_bias is that lane for the full sum,
        # _head_bias the first lanes' difference from it.
        total = sum(coefficients)
        self._lane_bias = (_LANE_BIAS - 2 * _SAMPLE_BIAS * total).to_bytes(8, "little")
        self._head_bias = sum(
            2 * _SAMPLE_BIAS * (total - sum(coefficients[: lane + 1])) << (_LANE_BITS * lane)
            for lane in range(len(coefficients) - 1)
        )

    def filter_bytes(self, data: bytes) -> bytes:
        """Filter little-endian int16 samples packed in *data* (zero initial
        state); an odd trailing byte is the low byte of a last sample."""
        padded = data + b"\x00" * (len(data) % self.SAMPLE_BYTES)
        count = len(padded) // self.SAMPLE_BYTES
        if not count:
            return b""
        samples = struct.unpack(f"<{count}h", padded)
        packed = int.from_bytes(struct.pack(f"<{count}Q", *map(_SAMPLE_BIAS.__add__, samples)), "little")
        bias = int.from_bytes(self._lane_bias * count, "little") + self._head_bias
        lanes = (packed * self._taps + bias) & ((1 << (_LANE_BITS * count)) - 1)
        # Bytes 2..5 of each lane, a signed 32-bit integer, are acc >> 15.
        filtered = struct.unpack("<" + "2xi2x" * count, lanes.to_bytes(8 * count, "little"))
        try:
            return struct.pack(f"<{count}h", *filtered)
        except struct.error:  # an output beyond int16: saturate
            return struct.pack(f"<{count}h", *[-32768 if value < -32768 else 32767 if value > 32767 else value for value in filtered])


#: A 16-tap symmetric low-pass filter (Q15), deterministic and non-trivial.
DEFAULT_COEFFICIENTS = [
    -120, -340, -510, 260, 2210, 5340, 8480, 9880,
    9880, 8480, 5340, 2210, 260, -510, -340, -120,
]


class FirFunction(HardwareFunction):
    """16-tap FIR filter as an on-demand hardware function."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="fir16",
            function_id=6,
            input_bytes=256,
            output_bytes=256,
            lut_estimate=800,
            cycle_model=CycleModel(base_cycles=16, cycles_per_byte=0.5, pipeline_depth=16),
        )
        super().__init__(spec)
        self.filter = FirFilter(DEFAULT_COEFFICIENTS)

    def behaviour(self, data: bytes) -> bytes:
        return self.filter.filter_bytes(data)
