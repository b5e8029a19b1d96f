"""SHA-1 implemented from scratch (FIPS 180-4)."""

from __future__ import annotations

import struct
from typing import List

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


def _rotate_left(value: int, amount: int) -> int:
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


class Sha1:
    """SHA-1 message digest."""

    DIGEST_BYTES = 20
    BLOCK_BYTES = 64

    _INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

    @staticmethod
    def _pad(message: bytes) -> bytes:
        length_bits = len(message) * 8
        padded = message + b"\x80"
        padded += b"\x00" * ((56 - len(padded) % 64) % 64)
        padded += struct.pack(">Q", length_bits)
        return padded

    @classmethod
    def _compress(cls, state: List[int], block: bytes) -> List[int]:
        schedule = list(struct.unpack(">16I", block))
        for index in range(16, 80):
            schedule.append(
                _rotate_left(
                    schedule[index - 3]
                    ^ schedule[index - 8]
                    ^ schedule[index - 14]
                    ^ schedule[index - 16],
                    1,
                )
            )
        a, b, c, d, e = state
        for index in range(80):
            if index < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif index < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif index < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotate_left(a, 5) + f + e + k + schedule[index]) & 0xFFFFFFFF
            e, d, c, b, a = d, c, _rotate_left(b, 30), a, temp
        return [
            (state[0] + a) & 0xFFFFFFFF,
            (state[1] + b) & 0xFFFFFFFF,
            (state[2] + c) & 0xFFFFFFFF,
            (state[3] + d) & 0xFFFFFFFF,
            (state[4] + e) & 0xFFFFFFFF,
        ]

    @classmethod
    def digest(cls, message: bytes) -> bytes:
        state = list(cls._INITIAL_STATE)
        padded = cls._pad(message)
        for start in range(0, len(padded), cls.BLOCK_BYTES):
            state = cls._compress(state, padded[start : start + cls.BLOCK_BYTES])
        return struct.pack(">5I", *state)

    @classmethod
    def hexdigest(cls, message: bytes) -> str:
        return cls.digest(message).hex()


class Sha1Function(HardwareFunction):
    """SHA-1 digest as an on-demand hardware function."""

    def __init__(self, function_id: int = 3) -> None:
        spec = FunctionSpec(
            name="sha1",
            function_id=function_id,
            input_bytes=64,
            output_bytes=20,
            lut_estimate=1100,
            cycle_model=CycleModel(base_cycles=82, cycles_per_byte=82.0 / 64.0, pipeline_depth=4),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return Sha1.digest(data)
