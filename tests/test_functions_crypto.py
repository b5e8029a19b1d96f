"""Tests for the cryptographic hardware functions (known-answer vectors)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.crypto_reference import (
    ReferenceAes128,
    ReferenceDes,
    ReferenceSha1,
    ReferenceSha256,
    decrypt_ecb,
)
from repro.functions.crypto.aes import Aes128, AesFunction, DEFAULT_AES_KEY
from repro.functions.crypto.des import Des, DesFunction, DEFAULT_DES_KEY
from repro.functions.crypto.modexp import (
    DEFAULT_EXPONENT,
    DEFAULT_MODULUS,
    ModExpFunction,
    modular_exponentiation,
)
from repro.functions.crypto.sha1 import Sha1Function
from repro.functions.crypto.sha256 import Sha256Function


class TestAes:
    def test_fips197_vector(self):
        cipher = ReferenceAes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.encrypt_block(plaintext) == expected
        assert cipher.decrypt_block(expected) == plaintext

    def test_appendix_b_vector(self):
        cipher = Aes128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert cipher.encrypt_block(plaintext).hex() == "3925841d02dc09fbdc118597196a0b32"

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_encrypt_decrypt_round_trip(self, key, block):
        cipher = ReferenceAes128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_ecb_pads_to_blocks(self):
        cipher = ReferenceAes128(DEFAULT_AES_KEY)
        ciphertext = cipher.encrypt_ecb(b"short")
        assert len(ciphertext) == 16
        assert decrypt_ecb(cipher, ciphertext)[:5] == b"short"

    def test_key_length_checked(self):
        with pytest.raises(ValueError):
            Aes128(b"short")

    def test_hardware_function_spec(self):
        function = AesFunction()
        assert function.name == "aes128"
        assert function.spec.input_bytes == 16
        output = function.behaviour(bytes(16))
        assert output == Aes128(DEFAULT_AES_KEY).encrypt_block(bytes(16))

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_table_driven_path_matches_reference(self, key, block):
        # The fast datapath must be bit-identical to the seed's step-by-step
        # SubBytes/ShiftRows/MixColumns chain, kept as _encrypt_block_reference
        # on the test-side subclass (encrypt_block is Aes128's).
        cipher = ReferenceAes128(key)
        assert cipher.encrypt_block(block) == cipher._encrypt_block_reference(block)


class TestDes:
    def test_classic_vector(self):
        cipher = Des(bytes.fromhex("133457799BBCDFF1"))
        assert cipher.encrypt_ecb(bytes.fromhex("0123456789ABCDEF")).hex() == "85e813540f0ab405"

    def test_weak_key_all_zero_identity_of_double_encrypt(self):
        # With an all-zero (weak) key, encryption is its own inverse.
        cipher = Des(bytes(8))
        block = bytes.fromhex("0123456789abcdef")
        assert cipher.encrypt_ecb(cipher.encrypt_ecb(block)) == block

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_encrypt_decrypt_round_trip(self, key, block):
        assert ReferenceDes(key).decrypt_block(Des(key).encrypt_ecb(block)) == block

    def test_block_and_key_sizes_checked(self):
        with pytest.raises(ValueError):
            Des(b"short")
        with pytest.raises(ValueError):
            ReferenceDes(DEFAULT_DES_KEY).encrypt_block(b"tiny")

    def test_ecb_round_trip(self):
        data = b"0123456789abcdef"
        assert decrypt_ecb(ReferenceDes(DEFAULT_DES_KEY), Des(DEFAULT_DES_KEY).encrypt_ecb(data)) == data

    def test_hardware_function(self):
        function = DesFunction()
        assert function.spec.input_bytes == 8
        assert function.behaviour(bytes(8)) == ReferenceDes(DEFAULT_DES_KEY).encrypt_block(bytes(8))

    @given(st.binary(max_size=3 * 8))
    @settings(max_examples=60, deadline=None)
    def test_behaviour_equals_reference(self, payload):
        # Empty, partial, whole and multi-block payloads up to 3x the nominal
        # 8 bytes: ECB zero-pads the last block in both models.
        assert DesFunction().behaviour(payload) == ReferenceDes(DEFAULT_DES_KEY).encrypt_ecb(payload)

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_any_key_equals_reference(self, key, block):
        assert Des(key).encrypt_ecb(block) == ReferenceDes(key).encrypt_block(block)


class TestSha1:
    @pytest.mark.parametrize(
        "message",
        [b"", b"abc", b"The quick brown fox jumps over the lazy dog", b"a" * 200],
    )
    def test_matches_hashlib(self, message):
        assert ReferenceSha1.hexdigest(message) == hashlib.sha1(message).hexdigest()

    @given(st.binary(max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_hashlib_property(self, message):
        assert ReferenceSha1.digest(message) == hashlib.sha1(message).digest()

    def test_hardware_function(self):
        function = Sha1Function()
        assert function.spec.output_bytes == 20
        assert function.behaviour(b"abc") == hashlib.sha1(b"abc").digest()

    @given(st.binary(max_size=3 * 64))
    @settings(max_examples=40, deadline=None)
    def test_behaviour_equals_reference(self, payload):
        assert Sha1Function().behaviour(payload) == ReferenceSha1.digest(payload)


class TestSha256:
    @pytest.mark.parametrize(
        "message",
        [b"", b"abc", b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", b"x" * 1000],
    )
    def test_matches_hashlib(self, message):
        assert ReferenceSha256.hexdigest(message) == hashlib.sha256(message).hexdigest()

    @given(st.binary(max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_hashlib_property(self, message):
        assert ReferenceSha256.digest(message) == hashlib.sha256(message).digest()

    def test_hardware_function(self):
        function = Sha256Function()
        assert function.spec.output_bytes == 32
        assert function.behaviour(b"abc") == hashlib.sha256(b"abc").digest()

    @given(st.binary(max_size=3 * 64))
    @settings(max_examples=40, deadline=None)
    def test_behaviour_equals_reference(self, payload):
        assert Sha256Function().behaviour(payload) == ReferenceSha256.digest(payload)


class TestModExp:
    def test_matches_builtin_pow(self):
        for base, exponent, modulus in [(2, 10, 1000), (123456789, 65537, 999999937), (5, 0, 7)]:
            assert modular_exponentiation(base, exponent, modulus) == pow(base, exponent, modulus)

    @given(
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=1, max_value=2**64),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_builtin_pow_property(self, base, exponent, modulus):
        assert modular_exponentiation(base, exponent, modulus) == pow(base, exponent, modulus)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            modular_exponentiation(2, 3, 0)
        with pytest.raises(ValueError):
            modular_exponentiation(2, -1, 5)

    def test_hardware_function_block_semantics(self):
        function = ModExpFunction()
        operand = (42).to_bytes(64, "big")
        expected = pow(42, DEFAULT_EXPONENT, DEFAULT_MODULUS).to_bytes(64, "big")
        assert function.behaviour(operand) == expected
        # Two blocks are processed independently.
        double = function.behaviour(operand * 2)
        assert double == expected * 2
