"""AES-128 implemented from scratch (FIPS-197).

The hardware function encrypts data in ECB mode with a key baked into the
configuration (real algorithm-agile crypto engines load the key alongside the
bit-stream).  The implementation is table-free except for the S-box, which is
computed at import time from the finite-field definition rather than pasted
as a constant, so the model is self-contained and auditable.
"""

from __future__ import annotations

from typing import List

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionCategory, FunctionSpec, HardwareFunction


def _xtime(value: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_multiply(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES reduction polynomial."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        b >>= 1
        a = _xtime(a)
    return result & 0xFF


def _gf_inverse(value: int) -> int:
    """Multiplicative inverse in GF(2^8) (0 maps to 0)."""
    if value == 0:
        return 0
    # Exponentiation: value^254 = value^-1 in GF(2^8).
    result = 1
    base = value
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_multiply(result, base)
        base = _gf_multiply(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> List[int]:
    """Construct the AES S-box from inversion + affine transform."""
    sbox = []
    for value in range(256):
        inverse = _gf_inverse(value)
        transformed = 0
        for bit in range(8):
            parity = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        sbox.append(transformed)
    return sbox


_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# Byte-level multiplication tables for the MixColumns matrix, derived from
# the same finite-field routine the step-by-step test oracle uses.  The block
# function below indexes these instead of re-running the bitwise GF multiply
# per state byte per round.
_MUL2 = [_xtime(value) for value in range(256)]
_MUL3 = [_MUL2[value] ^ value for value in range(256)]

# ShiftRows as a gather: output byte i (= row + 4*col, column-major) reads
# input byte row + 4*((col + row) % 4).
_SHIFT_MAP = [(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)]


class Aes128:
    """AES-128 block cipher, encryption only (the hardware datapath).

    The inverse cipher is a test oracle (``tests/oracles/crypto_reference.py``):
    nothing on the card decrypts.
    """

    BLOCK_BYTES = 16
    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 needs a 16-byte key")
        self.key = key
        self._round_keys = self._expand_key(key)

    # ---------------------------------------------------------- key schedule
    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for index in range(4, 4 * (Aes128.ROUNDS + 1)):
            previous = list(words[index - 1])
            if index % 4 == 0:
                previous = previous[1:] + previous[:1]
                previous = [_SBOX[b] for b in previous]
                previous[0] ^= _RCON[index // 4 - 1]
            words.append([a ^ b for a, b in zip(words[index - 4], previous)])
        round_keys = []
        for round_index in range(Aes128.ROUNDS + 1):
            round_key = []
            for word in words[4 * round_index : 4 * round_index + 4]:
                round_key.extend(word)
            round_keys.append(round_key)
        return round_keys

    # ----------------------------------------------------------- block level
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one block via the table-driven datapath.

        Bit-identical to the seed's step-by-step SubBytes / ShiftRows /
        MixColumns chain (``tests/oracles/crypto_reference.py``, golden-tested);
        SubBytes+ShiftRows collapse into one gather through ``_SHIFT_MAP`` and
        MixColumns reads the precomputed ``_MUL2``/``_MUL3`` tables.
        """
        if len(block) != self.BLOCK_BYTES:
            raise ValueError("AES blocks are 16 bytes")
        round_keys = self._round_keys
        sbox = _SBOX
        mul2 = _MUL2
        mul3 = _MUL3
        shift = _SHIFT_MAP
        key = round_keys[0]
        state = [block[i] ^ key[i] for i in range(16)]
        for round_index in range(1, self.ROUNDS):
            mixed = [sbox[state[shift[i]]] for i in range(16)]
            key = round_keys[round_index]
            state = []
            for column in (0, 4, 8, 12):
                a0 = mixed[column]
                a1 = mixed[column + 1]
                a2 = mixed[column + 2]
                a3 = mixed[column + 3]
                state.append(mul2[a0] ^ mul3[a1] ^ a2 ^ a3 ^ key[column])
                state.append(a0 ^ mul2[a1] ^ mul3[a2] ^ a3 ^ key[column + 1])
                state.append(a0 ^ a1 ^ mul2[a2] ^ mul3[a3] ^ key[column + 2])
                state.append(mul3[a0] ^ a1 ^ a2 ^ mul2[a3] ^ key[column + 3])
        key = round_keys[self.ROUNDS]
        return bytes(sbox[state[shift[i]]] ^ key[i] for i in range(16))

    # ------------------------------------------------------------- messages
    def encrypt_ecb(self, data: bytes) -> bytes:
        """ECB over zero-padded data (the hardware datapath's behaviour)."""
        padded = data + b"\x00" * ((-len(data)) % self.BLOCK_BYTES)
        out = bytearray()
        for start in range(0, len(padded), self.BLOCK_BYTES):
            out.extend(self.encrypt_block(padded[start : start + self.BLOCK_BYTES]))
        return bytes(out)


#: Key baked into the default bank's AES core (the FIPS-197 example key).
DEFAULT_AES_KEY = bytes(range(16))


class AesFunction(HardwareFunction):
    """AES-128 ECB encryption as an on-demand hardware function."""

    def __init__(self, function_id: int = 1, key: bytes = DEFAULT_AES_KEY) -> None:
        spec = FunctionSpec(
            name="aes128",
            function_id=function_id,
            description="AES-128 ECB encryption with a configuration-time key",
            category=FunctionCategory.CRYPTO,
            input_bytes=16,
            output_bytes=16,
            lut_estimate=2400,
            cycle_model=CycleModel(base_cycles=12, cycles_per_byte=11.0 / 16.0, pipeline_depth=10),
        )
        super().__init__(spec)
        self.cipher = Aes128(key)

    def behaviour(self, data: bytes) -> bytes:
        return self.cipher.encrypt_ecb(data)
