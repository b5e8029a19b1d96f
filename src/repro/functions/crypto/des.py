"""DES implemented from scratch (FIPS 46-3).

Kept in the bank because legacy standards are exactly why algorithm agility
matters: a fielded card must keep serving DES peers while newer peers use AES,
and the co-processor swaps between them on demand.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction

# Initial permutation and its inverse (bit positions are 1-based per FIPS 46-3).
_IP = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
]
_FP = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
]
_EXPANSION = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
]
_PBOX = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
]
_PC1 = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
]
_PC2 = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
]
_SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]
_SBOXES = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
]


def _bytes_to_bits(data: bytes) -> List[int]:
    """MSB-first bit list (bit 1 of FIPS numbering is the MSB of byte 0)."""
    bits = []
    for byte in data:
        for position in range(7, -1, -1):
            bits.append((byte >> position) & 1)
    return bits


def _bits_to_bytes(bits: Sequence[int]) -> bytes:
    out = bytearray(len(bits) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (7 - index % 8)
    return bytes(out)


def _permute(bits: Sequence[int], table: Sequence[int]) -> List[int]:
    return [bits[position - 1] for position in table]


def _rotate_left(bits: List[int], amount: int) -> List[int]:
    return bits[amount:] + bits[:amount]


class Des:
    """Single-DES block cipher."""

    BLOCK_BYTES = 8

    def __init__(self, key: bytes) -> None:
        if len(key) != 8:
            raise ValueError("DES needs an 8-byte key")
        self._subkeys = self._key_schedule(key)

    @staticmethod
    def _key_schedule(key: bytes) -> List[List[int]]:
        bits = _permute(_bytes_to_bits(key), _PC1)
        left, right = bits[:28], bits[28:]
        subkeys = []
        for shift in _SHIFTS:
            left = _rotate_left(left, shift)
            right = _rotate_left(right, shift)
            subkeys.append(_permute(left + right, _PC2))
        return subkeys

    @staticmethod
    def _feistel(right: List[int], subkey: List[int]) -> List[int]:
        expanded = _permute(right, _EXPANSION)
        mixed = [a ^ b for a, b in zip(expanded, subkey)]
        out: List[int] = []
        for box in range(8):
            chunk = mixed[box * 6 : box * 6 + 6]
            row = (chunk[0] << 1) | chunk[5]
            column = (chunk[1] << 3) | (chunk[2] << 2) | (chunk[3] << 1) | chunk[4]
            value = _SBOXES[box][row * 16 + column]
            out.extend([(value >> position) & 1 for position in (3, 2, 1, 0)])
        return _permute(out, _PBOX)

    def _crypt_block(self, block: bytes, subkeys: List[List[int]]) -> bytes:
        bits = _permute(_bytes_to_bits(block), _IP)
        left, right = bits[:32], bits[32:]
        for subkey in subkeys:
            feistel_out = self._feistel(right, subkey)
            left, right = right, [a ^ b for a, b in zip(left, feistel_out)]
        return _bits_to_bytes(_permute(right + left, _FP))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK_BYTES:
            raise ValueError("DES blocks are 8 bytes")
        return self._crypt_block(block, self._subkeys)

    def encrypt_ecb(self, data: bytes) -> bytes:
        padded = data + b"\x00" * ((-len(data)) % self.BLOCK_BYTES)
        out = bytearray()
        for start in range(0, len(padded), self.BLOCK_BYTES):
            out.extend(self.encrypt_block(padded[start : start + self.BLOCK_BYTES]))
        return bytes(out)


#: Default key for the bank's DES core (the classic FIPS test key).
DEFAULT_DES_KEY = bytes.fromhex("133457799BBCDFF1")


class DesFunction(HardwareFunction):
    """DES ECB encryption as an on-demand hardware function."""

    def __init__(self, function_id: int = 2) -> None:
        spec = FunctionSpec(
            name="des",
            function_id=function_id,
            input_bytes=8,
            output_bytes=8,
            lut_estimate=900,
            cycle_model=CycleModel(base_cycles=16, cycles_per_byte=2.0, pipeline_depth=16),
        )
        super().__init__(spec)
        self.cipher = Des(DEFAULT_DES_KEY)

    def behaviour(self, data: bytes) -> bytes:
        return self.cipher.encrypt_ecb(data)
