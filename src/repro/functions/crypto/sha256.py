"""SHA-256 implemented from scratch (FIPS 180-4).

The round constants are derived at import time from the fractional parts of
the cube roots of the first 64 primes (as the standard defines them) rather
than pasted in, keeping the model self-contained.
"""

from __future__ import annotations

import struct
from typing import List

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def _primes(count: int) -> List[int]:
    found: List[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % prime for prime in found if prime * prime <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def _fractional_bits(value: int, exponent: float) -> int:
    """First 32 bits of the fractional part of value**exponent, via integers.

    Uses integer Newton iteration on a scaled value to avoid floating-point
    rounding affecting the constants.
    """
    # Scale so that the root's fractional part appears in the low bits:
    # compute floor(value**exponent * 2**32) with integer arithmetic.
    scale_bits = 96
    if exponent == 0.5:
        scaled = _integer_nth_root(value << (2 * scale_bits), 2)
    elif abs(exponent - (1.0 / 3.0)) < 1e-9:
        scaled = _integer_nth_root(value << (3 * scale_bits), 3)
    else:
        raise ValueError("only square and cube roots are needed")
    whole = scaled >> scale_bits
    fraction = scaled - (whole << scale_bits)
    return fraction >> (scale_bits - 32)


def _integer_nth_root(value: int, n: int) -> int:
    """Floor of the n-th root of a (possibly huge) integer."""
    if value < 0:
        raise ValueError("nth root of a negative value")
    if value == 0:
        return 0
    guess = 1 << ((value.bit_length() + n - 1) // n)
    while True:
        next_guess = ((n - 1) * guess + value // guess ** (n - 1)) // n
        if next_guess >= guess:
            return guess
        guess = next_guess


_PRIMES_64 = _primes(64)
_H0 = [_fractional_bits(prime, 0.5) for prime in _PRIMES_64[:8]]
_K = [_fractional_bits(prime, 1.0 / 3.0) for prime in _PRIMES_64]


class Sha256:
    """SHA-256 message digest."""

    DIGEST_BYTES = 32
    BLOCK_BYTES = 64

    @staticmethod
    def _pad(message: bytes) -> bytes:
        length_bits = len(message) * 8
        padded = message + b"\x80"
        padded += b"\x00" * ((56 - len(padded) % 64) % 64)
        padded += struct.pack(">Q", length_bits)
        return padded

    @classmethod
    def _compress(cls, state: List[int], block: bytes) -> List[int]:
        """One compression round with the rotations inlined.

        Bit-identical to the seed's helper-based compression
        (``tests/oracles/crypto_reference.py``, golden-tested); the
        helper-function calls per rotation are replaced with shift/or
        expressions and the round constants are bound to a local.
        """
        mask = 0xFFFFFFFF
        schedule = list(struct.unpack(">16I", block))
        append = schedule.append
        for index in range(16, 64):
            w15 = schedule[index - 15]
            w2 = schedule[index - 2]
            s0 = ((w15 >> 7) | (w15 << 25)) & mask
            s0 ^= ((w15 >> 18) | (w15 << 14)) & mask
            s0 ^= w15 >> 3
            s1 = ((w2 >> 17) | (w2 << 15)) & mask
            s1 ^= ((w2 >> 19) | (w2 << 13)) & mask
            s1 ^= w2 >> 10
            append((schedule[index - 16] + s0 + schedule[index - 7] + s1) & mask)
        a, b, c, d, e, f, g, h = state
        for round_constant, word in zip(_K, schedule):
            s1 = ((e >> 6) | (e << 26)) & mask
            s1 ^= ((e >> 11) | (e << 21)) & mask
            s1 ^= ((e >> 25) | (e << 7)) & mask
            temp1 = (h + s1 + ((e & f) ^ (~e & g)) + round_constant + word) & mask
            s0 = ((a >> 2) | (a << 30)) & mask
            s0 ^= ((a >> 13) | (a << 19)) & mask
            s0 ^= ((a >> 22) | (a << 10)) & mask
            temp2 = (s0 + ((a & b) ^ (a & c) ^ (b & c))) & mask
            h = g
            g = f
            f = e
            e = (d + temp1) & mask
            d = c
            c = b
            b = a
            a = (temp1 + temp2) & mask
        return [(value + update) & mask for value, update in zip(state, [a, b, c, d, e, f, g, h])]

    @classmethod
    def digest(cls, message: bytes) -> bytes:
        state = list(_H0)
        padded = cls._pad(message)
        for start in range(0, len(padded), cls.BLOCK_BYTES):
            state = cls._compress(state, padded[start : start + cls.BLOCK_BYTES])
        return struct.pack(">8I", *state)

    @classmethod
    def hexdigest(cls, message: bytes) -> str:
        return cls.digest(message).hex()


class Sha256Function(HardwareFunction):
    """SHA-256 digest as an on-demand hardware function."""

    def __init__(self, function_id: int = 4) -> None:
        spec = FunctionSpec(
            name="sha256",
            function_id=function_id,
            input_bytes=64,
            output_bytes=32,
            lut_estimate=1500,
            cycle_model=CycleModel(base_cycles=68, cycles_per_byte=68.0 / 64.0, pipeline_depth=4),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return Sha256.digest(data)
