"""Tests for the DSP and miscellaneous hardware functions."""

import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.dsp_reference import ReferenceFirFilter, reference_fft256, reference_fft_radix2
from oracles.sort_reference import bitonic_sort
from repro.functions.dsp.fft import FftFunction, fft_radix2
from repro.functions.dsp.fir import DEFAULT_COEFFICIENTS, FirFilter, FirFunction
from repro.functions.dsp.matmul import MatMulFunction, matrix_multiply
from repro.functions.misc.crc import Crc32Function
from repro.functions.misc.sort import BitonicSortFunction
from repro.functions.misc.strmatch import StringMatchFunction, count_occurrences

#: Alternating rails and runs at one rail: the payloads that drive a Q15 FIR
#: and a 1/N-scaled FFT into saturation.
RAILS = [32767, -32768]
RAIL_PAYLOADS = [
    struct.pack("<256h", *(RAILS * 128)),
    struct.pack("<256h", *([-32768] * 256)),
    struct.pack("<256h", *([32767] * 16 + [-32768] * 16) * 8),
]


def int16_payloads(nominal_bytes):
    """Payloads of 0 to 3x *nominal_bytes*: raw bytes (odd lengths, partial
    blocks) or packed int16 samples drawn toward the rails."""
    sample = st.one_of(st.sampled_from([-32768, -32767, -1, 0, 1, 32767]), st.integers(-32768, 32767))
    samples = st.lists(sample, max_size=3 * nominal_bytes // 2)
    return st.one_of(
        st.binary(max_size=3 * nominal_bytes),
        samples.map(lambda values: struct.pack(f"<{len(values)}h", *values)),
    )


#: Real and imaginary parts that are often a zero of either sign.
SIGNED_ZERO_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6))


def float_bits(values):
    """The IEEE bit patterns of complex *values*: ``-0.0`` differs from ``0.0``."""
    return struct.pack(f"<{2 * len(values)}d", *[part for value in values for part in (value.real, value.imag)])


def filter_samples(fir, samples):
    """*fir*'s output for an int16 sample vector."""
    output = fir.filter_bytes(struct.pack(f"<{len(samples)}h", *samples))
    return list(struct.unpack(f"<{len(samples)}h", output))


class TestFir:
    def test_impulse_response_recovers_coefficients(self):
        coefficients = [100, -200, 300, 50]
        fir = FirFilter(coefficients)
        impulse = [-(1 << 15)] + [0] * 7  # unit impulse in Q15, negated
        response = [-value for value in filter_samples(fir, impulse)]
        assert response[: len(coefficients)] == coefficients
        assert all(value == 0 for value in response[len(coefficients):])

    def test_saturation(self):
        fir = FirFilter([32767])
        assert filter_samples(fir, [32767]) == [32766]  # (32767*32767)>>15 stays within int16
        # Two max-magnitude taps overflow int16 and must clamp at the rails.
        fir_wide = FirFilter([32767, 32767])
        assert filter_samples(fir_wide, [32767, 32767])[1] == 32767
        fir_negative = FirFilter([-32768, -32768])
        assert filter_samples(fir_negative, [32767, 32767])[1] == -32768

    def test_bytes_interface_round_trip_length(self):
        function = FirFunction()
        samples = struct.pack("<8h", *[100, -100, 500, -500, 0, 1, -1, 32000])
        output = function.behaviour(samples)
        assert len(output) == len(samples)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            FirFilter([])
        with pytest.raises(ValueError):
            FirFilter([40000])
        with pytest.raises(ValueError):
            FirFilter([1] * 65536)

    @given(int16_payloads(256))
    @example(RAIL_PAYLOADS[0])
    @example(RAIL_PAYLOADS[1])
    @example(RAIL_PAYLOADS[2] + b"\x01")
    @settings(max_examples=60, deadline=None)
    def test_behaviour_equals_reference(self, payload):
        assert FirFunction().behaviour(payload) == ReferenceFirFilter(DEFAULT_COEFFICIENTS).filter_bytes(payload)

    @given(
        st.lists(st.integers(-32768, 32767), min_size=1, max_size=24),
        int16_payloads(64),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_taps_equal_reference(self, coefficients, payload):
        assert FirFilter(coefficients).filter_bytes(payload) == ReferenceFirFilter(coefficients).filter_bytes(
            payload
        )


class TestFft:
    def test_matches_direct_dft_for_small_input(self):
        import cmath

        samples = [complex(value, 0) for value in (1, 2, 3, 4, 5, 6, 7, 8)]
        spectrum = fft_radix2(samples)
        for k in range(8):
            direct = sum(
                samples[n] * cmath.exp(-2j * cmath.pi * k * n / 8) for n in range(8)
            )
            assert abs(spectrum[k] - direct) < 1e-9

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fft_radix2([1, 2, 3])

    def test_empty_input(self):
        assert fft_radix2([]) == []

    def test_dc_input_concentrates_in_bin_zero(self):
        function = FftFunction()
        samples = struct.pack(f"<{function.POINTS}h", *([1000] * function.POINTS))
        output = function.behaviour(samples)
        pairs = struct.unpack(f"<{function.POINTS * 2}h", output)
        real = pairs[0::2]
        assert real[0] == 1000  # mean value in bin 0 after 1/N scaling
        assert all(abs(value) <= 1 for value in real[1:])

    def test_output_length(self):
        function = FftFunction()
        output = function.behaviour(b"\x00\x01" * 256)
        assert len(output) == function.spec.output_bytes

    @given(int16_payloads(512))
    @example(RAIL_PAYLOADS[0])
    @example(RAIL_PAYLOADS[1])
    @example(RAIL_PAYLOADS[2] + RAIL_PAYLOADS[0][:7])
    @example(struct.pack("<256h", 640, *[0] * 255))  # every bin 640 / 256 = 2.5: ties to even
    @settings(max_examples=40, deadline=None)
    def test_behaviour_equals_reference(self, payload):
        assert FftFunction().behaviour(payload) == reference_fft256(payload)

    @given(
        st.integers(0, 9).flatmap(
            lambda log_length: st.lists(
                st.builds(complex, SIGNED_ZERO_FLOATS, SIGNED_ZERO_FLOATS),
                min_size=2**log_length,
                max_size=2**log_length,
            )
        )
    )
    @example([complex(1.0, -0.0), complex(2.0, -0.0)])  # x * (1+0j) turns -0.0 into 0.0
    @settings(max_examples=40, deadline=None)
    def test_transform_equals_reference_to_the_bit(self, samples):
        assert float_bits(fft_radix2(samples)) == float_bits(reference_fft_radix2(samples))


class TestMatMul:
    def test_identity_multiplication(self):
        identity = [[1 if row == column else 0 for column in range(3)] for row in range(3)]
        matrix = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert matrix_multiply(identity, matrix) == matrix

    def test_known_product(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        assert matrix_multiply(a, b) == [[19, 22], [43, 50]]

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            matrix_multiply([[1, 2]], [[1, 2]])
        with pytest.raises(ValueError):
            matrix_multiply([[1, 2], [3]], [[1], [2]])

    def test_hardware_function_matches_reference(self):
        function = MatMulFunction()
        a = [[(row * 8 + column) % 7 - 3 for column in range(8)] for row in range(8)]
        b = [[(row + column) % 5 - 2 for column in range(8)] for row in range(8)]
        payload = struct.pack("<64h", *[value for row in a for value in row]) + struct.pack(
            "<64h", *[value for row in b for value in row]
        )
        output = function.behaviour(payload)
        result = struct.unpack("<64i", output)
        expected = matrix_multiply(a, b)
        assert list(result) == [value for row in expected for value in row]

    @staticmethod
    def _wrapped_reference(payload):
        """The product of one packed pair, each sum wrapped to int32."""
        elements = struct.unpack("<128h", payload)
        a = [list(elements[row * 8 : row * 8 + 8]) for row in range(8)]
        b = [list(elements[64 + row * 8 : 64 + row * 8 + 8]) for row in range(8)]
        return [
            (value + 2**31) % 2**32 - 2**31
            for row in matrix_multiply(a, b)
            for value in row
        ]

    @given(st.binary(min_size=256, max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_random_payloads_wrap_to_int32(self, payload):
        output = MatMulFunction().behaviour(payload)
        assert list(struct.unpack("<64i", output)) == self._wrapped_reference(payload)

    @pytest.mark.parametrize("element", [0x7FFF, -0x8000])
    def test_extreme_values_wrap_instead_of_raising(self, element):
        payload = struct.pack("<128h", *([element] * 128))
        output = MatMulFunction().behaviour(payload)
        # 8 * element**2 is 2**33 - 2**19 + 8 or 2**33: both exceed int32.
        assert 8 * element * element > 2**31
        assert list(struct.unpack("<64i", output)) == self._wrapped_reference(payload)


class TestCrc32Function:
    def test_matches_zlib(self):
        function = Crc32Function()
        for data in (b"", b"abc", bytes(range(200))):
            assert int.from_bytes(function.behaviour(data), "big") == zlib.crc32(data)


class TestBitonicSort:
    def test_sorts_power_of_two_lists(self):
        values = [5, 3, 8, 1, 9, 2, 7, 4]
        assert bitonic_sort(values) == sorted(values)

    @given(st.lists(st.integers(min_value=0, max_value=65535), min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_matches_sorted_property(self, values):
        assert bitonic_sort(values) == sorted(values)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            bitonic_sort([1, 2, 3])

    def test_hardware_function_sorts_keys(self):
        function = BitonicSortFunction()
        keys = list(range(64, 0, -1))
        payload = struct.pack("<64H", *keys)
        output = function.behaviour(payload)
        assert list(struct.unpack("<64H", output)) == sorted(keys)

    @given(st.binary(max_size=600))
    @settings(max_examples=100, deadline=None)
    def test_behaviour_is_the_network_block_by_block(self, payload):
        padded = payload + bytes(-len(payload) % 128)
        expected = b"".join(
            struct.pack("<64H", *bitonic_sort(struct.unpack("<64H", padded[start : start + 128])))
            for start in range(0, len(padded), 128)
        )
        assert BitonicSortFunction().behaviour(payload) == expected


class TestStringMatch:
    def test_counts_overlapping_occurrences(self):
        assert count_occurrences(b"aaaa", b"aa") == 3
        assert count_occurrences(b"hello", b"xyz") == 0
        assert count_occurrences(b"hello", b"") == 0

    def test_hardware_function(self):
        function = StringMatchFunction()
        output = function.behaviour(b"AGILExxAGILEAGILE")
        assert struct.unpack(">I", output)[0] == 3
