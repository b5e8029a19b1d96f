"""The seed's step-by-step AES-128 block functions and SHA-256 compression,
moved here unchanged from ``repro.functions.crypto`` (where they were private
``*_reference`` members): the oracles ``tests/test_functions_crypto.py`` holds
the table-driven / rotation-inlined datapaths bit-identical to.  They share the
S-box, the GF(2^8) multiply, the key schedule and the round constants with the
code under test; FIPS / hashlib vectors in the same test file pin those.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.functions.crypto.aes import _INV_SBOX, _SBOX, Aes128, _gf_multiply
from repro.functions.crypto.sha256 import _K


class ReferenceAes128(Aes128):
    """``Aes128`` plus the SubBytes / ShiftRows / MixColumns / AddRoundKey chain."""

    # ------------------------------------------------------------ primitives
    @staticmethod
    def _sub_bytes(state: List[int]) -> List[int]:
        return [_SBOX[b] for b in state]

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> List[int]:
        return [_INV_SBOX[b] for b in state]

    @staticmethod
    def _shift_rows(state: List[int]) -> List[int]:
        # State is column-major (FIPS-197): byte index = row + 4*col.
        out = list(state)
        for row in range(1, 4):
            values = [state[row + 4 * col] for col in range(4)]
            values = values[row:] + values[:row]
            for col in range(4):
                out[row + 4 * col] = values[col]
        return out

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        out = list(state)
        for row in range(1, 4):
            values = [state[row + 4 * col] for col in range(4)]
            values = values[-row:] + values[:-row]
            for col in range(4):
                out[row + 4 * col] = values[col]
        return out

    @staticmethod
    def _mix_columns(state: List[int]) -> List[int]:
        out = [0] * 16
        for col in range(4):
            column = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = (
                _gf_multiply(column[0], 2) ^ _gf_multiply(column[1], 3) ^ column[2] ^ column[3]
            )
            out[4 * col + 1] = (
                column[0] ^ _gf_multiply(column[1], 2) ^ _gf_multiply(column[2], 3) ^ column[3]
            )
            out[4 * col + 2] = (
                column[0] ^ column[1] ^ _gf_multiply(column[2], 2) ^ _gf_multiply(column[3], 3)
            )
            out[4 * col + 3] = (
                _gf_multiply(column[0], 3) ^ column[1] ^ column[2] ^ _gf_multiply(column[3], 2)
            )
        return out

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> List[int]:
        out = [0] * 16
        for col in range(4):
            column = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = (
                _gf_multiply(column[0], 14)
                ^ _gf_multiply(column[1], 11)
                ^ _gf_multiply(column[2], 13)
                ^ _gf_multiply(column[3], 9)
            )
            out[4 * col + 1] = (
                _gf_multiply(column[0], 9)
                ^ _gf_multiply(column[1], 14)
                ^ _gf_multiply(column[2], 11)
                ^ _gf_multiply(column[3], 13)
            )
            out[4 * col + 2] = (
                _gf_multiply(column[0], 13)
                ^ _gf_multiply(column[1], 9)
                ^ _gf_multiply(column[2], 14)
                ^ _gf_multiply(column[3], 11)
            )
            out[4 * col + 3] = (
                _gf_multiply(column[0], 11)
                ^ _gf_multiply(column[1], 13)
                ^ _gf_multiply(column[2], 9)
                ^ _gf_multiply(column[3], 14)
            )
        return out

    @staticmethod
    def _add_round_key(state: List[int], round_key: Sequence[int]) -> List[int]:
        return [a ^ b for a, b in zip(state, round_key)]

    # ----------------------------------------------------------- block level
    def _encrypt_block_reference(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK_BYTES:
            raise ValueError("AES blocks are 16 bytes")
        state = self._add_round_key(list(block), self._round_keys[0])
        for round_index in range(1, self.ROUNDS):
            state = self._sub_bytes(state)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = self._add_round_key(state, self._round_keys[round_index])
        state = self._sub_bytes(state)
        state = self._shift_rows(state)
        state = self._add_round_key(state, self._round_keys[self.ROUNDS])
        return bytes(state)

    def _decrypt_block_reference(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK_BYTES:
            raise ValueError("AES blocks are 16 bytes")
        state = self._add_round_key(list(block), self._round_keys[self.ROUNDS])
        for round_index in range(self.ROUNDS - 1, 0, -1):
            state = self._inv_shift_rows(state)
            state = self._inv_sub_bytes(state)
            state = self._add_round_key(state, self._round_keys[round_index])
            state = self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        state = self._inv_sub_bytes(state)
        state = self._add_round_key(state, self._round_keys[0])
        return bytes(state)


def _rotate_right(value: int, amount: int) -> int:
    value &= 0xFFFFFFFF
    return ((value >> amount) | (value << (32 - amount))) & 0xFFFFFFFF


def compress_reference(state: List[int], block: bytes) -> List[int]:
    """The seed's helper-based SHA-256 compression function."""
    schedule = list(struct.unpack(">16I", block))
    for index in range(16, 64):
        s0 = (
            _rotate_right(schedule[index - 15], 7)
            ^ _rotate_right(schedule[index - 15], 18)
            ^ (schedule[index - 15] >> 3)
        )
        s1 = (
            _rotate_right(schedule[index - 2], 17)
            ^ _rotate_right(schedule[index - 2], 19)
            ^ (schedule[index - 2] >> 10)
        )
        schedule.append((schedule[index - 16] + s0 + schedule[index - 7] + s1) & 0xFFFFFFFF)
    a, b, c, d, e, f, g, h = state
    for index in range(64):
        s1 = _rotate_right(e, 6) ^ _rotate_right(e, 11) ^ _rotate_right(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _K[index] + schedule[index]) & 0xFFFFFFFF
        s0 = _rotate_right(a, 2) ^ _rotate_right(a, 13) ^ _rotate_right(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & 0xFFFFFFFF
        h, g, f, e, d, c, b, a = (
            g,
            f,
            e,
            (d + temp1) & 0xFFFFFFFF,
            c,
            b,
            a,
            (temp1 + temp2) & 0xFFFFFFFF,
        )
    return [(value + update) & 0xFFFFFFFF for value, update in zip(state, [a, b, c, d, e, f, g, h])]
