"""DES (FIPS 46-3) on 32- and 64-bit integers: byte-indexed IP and FP
tables, SP-box rounds and a key schedule run once per key.

The seed's from-scratch model on lists of single bits is
``tests/oracles/crypto_reference.py``'s ``ReferenceDes``;
``tests/test_functions_crypto.py`` holds this datapath equal to it under
hypothesis, on any key and payload.

Kept in the bank because legacy standards are exactly why algorithm agility
matters: a fielded card must keep serving DES peers while newer peers use AES,
and the co-processor swaps between them on demand.
"""

from __future__ import annotations

import functools
import struct
from array import array
from typing import List, Sequence, Tuple

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


def _permute(value: int, table: Sequence[int], width: int) -> int:
    """*table*'s permutation of the *width*-bit *value* (FIPS bit 1 is the MSB)."""
    out = 0
    for position in table:
        out = (out << 1) | ((value >> (width - position)) & 1)
    return out


def _bit_masks(table: Sequence[int]) -> List[int]:
    """``masks[p]``: where *table*'s permutation puts input bit *p* (1-based)."""
    masks = [0] * (max(table) + 1)
    for index, position in enumerate(table):
        masks[position] |= 1 << (len(table) - 1 - index)
    return masks


def _byte_tables(table: Sequence[int]) -> List[array]:
    """Eight 256-entry tables, one per byte of a 64-bit block, whose OR is
    *table*'s permutation of the block.  Each entry is one OR: the entry with
    its lowest set bit cleared, and that bit's mask.  Stored as 64-bit
    arrays, a sixth of the memory of lists of ints this wide."""
    masks = _bit_masks(table)
    tables = []
    for byte_index in range(8):
        entries = array("Q", bytes(8 * 256))
        for value in range(1, 256):
            low = value & -value
            entries[value] = entries[value ^ low] | masks[8 * byte_index + 9 - low.bit_length()]
        tables.append(entries)
    return tables


def _sp_tables() -> List[List[int]]:
    """``SP[box][six]``: S-box *box*'s output for a six-bit input, already
    passed through P, so a round's f is the OR of eight lookups."""
    masks = _bit_masks(_PBOX)
    tables = []
    for box, sbox in enumerate(_SBOXES):
        # P of each four-bit output, which sits at bits 4*box+1 .. 4*box+4.
        nibbles = [0] * 16
        for value in range(1, 16):
            low = value & -value
            nibbles[value] = nibbles[value ^ low] | masks[4 * box + 5 - low.bit_length()]
        # Row from the outer bits, column from the inner four.
        tables.append([nibbles[sbox[(((six >> 4) & 2) | (six & 1)) * 16 + ((six >> 1) & 0xF)]] for six in range(64)])
    return tables


@functools.lru_cache(maxsize=None)
def _tables() -> Tuple[List[array], List[array], List[List[int]]]:
    """The IP, FP and SP tables, built by the first ``Des`` (about a
    millisecond), so a process whose bank has no DES never holds them."""
    return _byte_tables(_IP), _byte_tables(_FP), _sp_tables()


class Des:
    """Single-DES block cipher on 32- and 64-bit integers.

    A round expands R by shifts: its 34-bit wrap (bit 32, R, bit 1) holds
    the eight six-bit windows of the expansion E four bits apart, so the even
    windows and the odd windows each fit one word without overlapping.  The
    key schedule lays each round's eight six-bit subkeys over those two words
    once, and f is eight lookups in the SP tables.
    """

    BLOCK_BYTES = 8

    def __init__(self, key: bytes) -> None:
        if len(key) != 8:
            raise ValueError("DES needs an 8-byte key")
        self._subkeys = self._key_schedule(key)
        self._ip, self._fp, self._sp = _tables()

    @staticmethod
    def _key_schedule(key: bytes) -> List[Tuple[int, int]]:
        """Sixteen ``(even, odd)`` subkey words: the round's six-bit subkeys
        1, 3, 5, 7 (counting from 1) at bits 28, 20, 12, 4 and 2, 4, 6, 8 at
        bits 24, 16, 8, 0, where E's windows sit in R's 34-bit wrap."""
        bits = _permute(int.from_bytes(key, "big"), _PC1, 64)
        left, right = bits >> 28, bits & 0xFFFFFFF
        subkeys = []
        for shift in _SHIFTS:
            left = ((left << shift) | (left >> (28 - shift))) & 0xFFFFFFF
            right = ((right << shift) | (right >> (28 - shift))) & 0xFFFFFFF
            subkey = _permute((left << 28) | right, _PC2, 56)
            chunks = [(subkey >> offset) & 0x3F for offset in range(42, -6, -6)]
            even = (chunks[0] << 28) | (chunks[2] << 20) | (chunks[4] << 12) | (chunks[6] << 4)
            odd = (chunks[1] << 24) | (chunks[3] << 16) | (chunks[5] << 8) | chunks[7]
            subkeys.append((even, odd))
        return subkeys

    def encrypt_ecb(self, data: bytes) -> bytes:
        """Encrypt *data* block by block; the last block is zero-padded."""
        padded = data + b"\x00" * ((-len(data)) % self.BLOCK_BYTES)
        ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = self._ip
        fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = self._fp
        sp0, sp1, sp2, sp3, sp4, sp5, sp6, sp7 = self._sp
        subkeys = self._subkeys
        blocks = []
        # zip over one iterator eight times: the block's eight bytes.
        for b0, b1, b2, b3, b4, b5, b6, b7 in zip(*[iter(padded)] * 8):
            block = ip0[b0] | ip1[b1] | ip2[b2] | ip3[b3] | ip4[b4] | ip5[b5] | ip6[b6] | ip7[b7]
            left, right = block >> 32, block & 0xFFFFFFFF
            for even_key, odd_key in subkeys:
                wrap = (right << 1) | (right >> 31) | ((right & 1) << 33)
                even = wrap ^ even_key
                odd = wrap ^ odd_key
                left, right = right, left ^ (
                    sp0[even >> 28]
                    | sp1[(odd >> 24) & 0x3F]
                    | sp2[(even >> 20) & 0x3F]
                    | sp3[(odd >> 16) & 0x3F]
                    | sp4[(even >> 12) & 0x3F]
                    | sp5[(odd >> 8) & 0x3F]
                    | sp6[(even >> 4) & 0x3F]
                    | sp7[odd & 0x3F]
                )
            # The output is FP(R16 L16): right is the block's high half.
            blocks.append(
                fp0[right >> 24] | fp1[(right >> 16) & 0xFF] | fp2[(right >> 8) & 0xFF] | fp3[right & 0xFF]
                | fp4[left >> 24] | fp5[(left >> 16) & 0xFF] | fp6[(left >> 8) & 0xFF] | fp7[left & 0xFF]
            )
        return struct.pack(f">{len(blocks)}Q", *blocks)


#: Default key for the bank's DES core (the classic FIPS test key).
DEFAULT_DES_KEY = bytes.fromhex("133457799BBCDFF1")


class DesFunction(HardwareFunction):
    """DES ECB encryption as an on-demand hardware function."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="des",
            function_id=2,
            input_bytes=8,
            output_bytes=8,
            lut_estimate=900,
            cycle_model=CycleModel(base_cycles=16, cycles_per_byte=2.0, pipeline_depth=16),
        )
        super().__init__(spec)
        self.cipher = Des(DEFAULT_DES_KEY)

    def behaviour(self, data: bytes) -> bytes:
        return self.cipher.encrypt_ecb(data)
