"""The seed's step-by-step crypto models, kept as the oracles the bank's fast
datapaths are held bit-identical to (``tests/test_functions_crypto.py``):

* AES-128's SubBytes / ShiftRows / MixColumns / AddRoundKey chain, which
  ``Aes128``'s table-driven rounds match;
* DES on lists of single bits (``ReferenceDes``), which ``Des``'s SP-box
  rounds on 32-bit ints match;
* SHA-1 and SHA-256 from their compression functions (``ReferenceSha1``,
  ``ReferenceSha256``), which the bank's :mod:`hashlib` digests match.

They share the S-boxes, permutation tables and key schedules' tables with the
code under test; FIPS / hashlib vectors in the same test file pin those.

The inverse ciphers live here too: the card only encrypts, so AES and DES
decryption exist to check the encryption datapaths round-trip.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.functions.crypto.aes import _SBOX, Aes128, _gf_multiply
from repro.functions.crypto.des import _FP, _IP, _PBOX, _PC1, _PC2, _SBOXES, _SHIFTS

_INV_SBOX = [0] * 256
for _index, _value in enumerate(_SBOX):
    _INV_SBOX[_value] = _index


class ReferenceAes128(Aes128):
    """``Aes128`` plus the SubBytes / ShiftRows / MixColumns / AddRoundKey chain
    and its inverse."""

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

    def decrypt_block(self, block: bytes) -> bytes:
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


_EXPANSION = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
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


def _rotate_bits_left(bits: List[int], amount: int) -> List[int]:
    return bits[amount:] + bits[:amount]


class ReferenceDes:
    """The seed's single-DES on lists of single bits, every permutation a
    table walk, plus decryption: the Feistel network with the subkeys
    reversed."""

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
            left = _rotate_bits_left(left, shift)
            right = _rotate_bits_left(right, shift)
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

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK_BYTES:
            raise ValueError("DES blocks are 8 bytes")
        return self._crypt_block(block, list(reversed(self._subkeys)))

    def encrypt_ecb(self, data: bytes) -> bytes:
        padded = data + b"\x00" * ((-len(data)) % self.BLOCK_BYTES)
        out = bytearray()
        for start in range(0, len(padded), self.BLOCK_BYTES):
            out.extend(self.encrypt_block(padded[start : start + self.BLOCK_BYTES]))
        return bytes(out)


def decrypt_ecb(cipher, data: bytes) -> bytes:
    """ECB decryption with either reference cipher; a partial block raises."""
    size = cipher.BLOCK_BYTES
    return b"".join(
        cipher.decrypt_block(data[start : start + size]) for start in range(0, len(data), size)
    )


def _pad(message: bytes) -> bytes:
    """FIPS 180-4 padding for SHA-1 and SHA-256: a one bit, zeros, then the
    message length in bits as a 64-bit big-endian integer."""
    length_bits = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", length_bits)
    return padded


def _rotate_left(value: int, amount: int) -> int:
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


class ReferenceSha1:
    """The seed's SHA-1 (FIPS 180-4), one 80-round compression per block."""

    _INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

    @staticmethod
    def _compress(state: List[int], block: bytes) -> List[int]:
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
        padded = _pad(message)
        for start in range(0, len(padded), 64):
            state = cls._compress(state, padded[start : start + 64])
        return struct.pack(">5I", *state)

    @classmethod
    def hexdigest(cls, message: bytes) -> str:
        return cls.digest(message).hex()


def _primes(count: int) -> List[int]:
    found: List[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % prime for prime in found if prime * prime <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def _integer_nth_root(value: int, n: int) -> int:
    """Floor of the n-th root of a (possibly huge) integer."""
    if value == 0:
        return 0
    guess = 1 << ((value.bit_length() + n - 1) // n)
    while True:
        next_guess = ((n - 1) * guess + value // guess ** (n - 1)) // n
        if next_guess >= guess:
            return guess
        guess = next_guess


def _fractional_bits(value: int, root: int) -> int:
    """First 32 bits of the fractional part of the *root*-th root of *value*:
    ``floor(value ** (1 / root) * 2**96)`` by integer Newton iteration, so no
    floating-point rounding reaches the constants."""
    scale_bits = 96
    scaled = _integer_nth_root(value << (root * scale_bits), root)
    return (scaled & ((1 << scale_bits) - 1)) >> (scale_bits - 32)


# SHA-256's constants as the standard defines them: the fractional parts of
# the square roots (initial state) and cube roots (round constants) of the
# first 64 primes.
_PRIMES_64 = _primes(64)
_H0 = [_fractional_bits(prime, 2) for prime in _PRIMES_64[:8]]
_K = [_fractional_bits(prime, 3) for prime in _PRIMES_64]


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


class ReferenceSha256:
    """The seed's SHA-256 (FIPS 180-4) on :func:`compress_reference`."""

    @staticmethod
    def digest(message: bytes) -> bytes:
        state = list(_H0)
        padded = _pad(message)
        for start in range(0, len(padded), 64):
            state = compress_reference(state, padded[start : start + 64])
        return struct.pack(">8I", *state)

    @classmethod
    def hexdigest(cls, message: bytes) -> str:
        return cls.digest(message).hex()
