"""Tests for traces, trace generators and application models."""

from collections import Counter

import pytest

from repro.workloads import (
    Request,
    Trace,
    bursty_trace,
    dsp_pipeline_trace,
    hash_server_trace,
    ipsec_gateway_trace,
    phased_trace,
    repeated_trace,
    round_robin_trace,
    uniform_trace,
    zipf_trace,
)
from repro.sim.rand import SeededRandom
from repro.workloads.generators import WORKING_SET, FunctionChooser


def function_counts(trace) -> Counter:
    return Counter(request.function for request in trace)


def switches(trace) -> int:
    """Adjacent request pairs that change function."""
    functions = [request.function for request in trace]
    return sum(previous != current for previous, current in zip(functions, functions[1:]))


class TestTrace:
    def test_basic_queries(self, small_bank):
        trace = Trace(
            [
                Request("crc32", b"a"),
                Request("crc32", b"b"),
                Request("parity32", b"cd"),
            ],
            name="demo",
        )
        assert len(trace) == 3
        assert trace.name == "demo"
        assert sum(len(request.payload) for request in trace) == 4
        assert [request.function for request in trace] == ["crc32", "crc32", "parity32"]

    def test_indexing(self, small_bank):
        trace = repeated_trace(small_bank, "crc32", 3)
        assert trace.requests[0].function == "crc32"


class TestGenerators:
    def test_lengths_and_known_functions(self, small_bank):
        for trace in (
            uniform_trace(small_bank, 50, seed=1),
            zipf_trace(small_bank, 50, seed=1),
            phased_trace(small_bank, 50, phase_length=10, seed=1),
            round_robin_trace(small_bank, 50, seed=1),
            bursty_trace(small_bank, 50, seed=1),
        ):
            assert len(trace) == 50
            assert set(function_counts(trace)) <= set(small_bank.names())

    def test_seed_determinism(self, small_bank):
        first = zipf_trace(small_bank, 100, seed=5)
        second = zipf_trace(small_bank, 100, seed=5)
        third = zipf_trace(small_bank, 100, seed=6)
        assert first.requests == second.requests
        assert [r.function for r in first] != [r.function for r in third]

    def test_payload_sizes_follow_function_spec(self, small_bank):
        trace = uniform_trace(small_bank, 30, seed=2, payload_blocks=3)
        for request in trace:
            expected = small_bank.by_name(request.function).spec.input_bytes * 3
            assert len(request.payload) == expected

    def test_zipf_is_skewed(self, default_bank):
        trace = zipf_trace(default_bank, 600, skew=1.4, seed=3)
        counts = sorted(function_counts(trace).values(), reverse=True)
        assert counts[0] > 2 * counts[-1]

    def test_round_robin_switches_every_repeat(self, small_bank):
        trace = round_robin_trace(small_bank, 40, repeats_per_function=1, seed=0)
        assert switches(trace) == 39
        batched = round_robin_trace(small_bank, 40, repeats_per_function=4, seed=0)
        assert switches(batched) < switches(trace)

    def test_phased_trace_limits_working_set_per_phase(self, default_bank):
        trace = phased_trace(default_bank, 200, phase_length=50, seed=4)
        for start in range(0, 200, 50):
            phase_functions = {request.function for request in trace.requests[start : start + 50]}
            assert len(phase_functions) <= WORKING_SET

    def test_unknown_function_rejected(self, small_bank):
        with pytest.raises(KeyError):
            uniform_trace(small_bank, 5, functions=["ghost"])

    def test_parameter_validation(self, small_bank):
        with pytest.raises(ValueError):
            round_robin_trace(small_bank, 10, repeats_per_function=0)
        with pytest.raises(ValueError):
            phased_trace(small_bank, 10, phase_length=0)
        with pytest.raises(ValueError):
            bursty_trace(small_bank, 10, mean_burst=0)


class TestFunctionChooser:
    def test_zipf_skew_prefers_low_indices(self, default_bank):
        chooser = FunctionChooser(default_bank, default_bank.names()[:10], SeededRandom(7), "zipf", 1.5)
        draws = [chooser.next_index() for _ in range(2000)]
        low = sum(1 for value in draws if value < 3)
        assert low / len(draws) > 0.6
        assert all(0 <= value < 10 for value in draws)

    def test_zipf_zero_skew_is_roughly_uniform(self, small_bank):
        chooser = FunctionChooser(small_bank, small_bank.names(), SeededRandom(11), "zipf", 0.0)
        draws = [chooser.next_index() for _ in range(4000)]
        counts = [draws.count(index) for index in range(4)]
        assert min(counts) > 700

    def test_zipf_invalid_inputs(self, small_bank):
        with pytest.raises(ValueError):
            FunctionChooser(small_bank, [], SeededRandom(), "zipf")
        with pytest.raises(ValueError):
            FunctionChooser(small_bank, small_bank.names(), SeededRandom(), "zipf", skew=-1)


class TestApplicationModels:
    def test_ipsec_mixes_cipher_hash_and_rekey(self, default_bank):
        trace = ipsec_gateway_trace(default_bank, packets=100, rekey_interval=20, seed=1)
        counts = function_counts(trace)
        assert counts.get("modexp512", 0) == 5
        assert counts.get("aes128", 0) + counts.get("des", 0) == 100
        assert counts.get("sha1", 0) + counts.get("sha256", 0) == 100

    def test_hash_server_mostly_primary_digest(self, default_bank):
        trace = hash_server_trace(default_bank, requests=64, verify_every=16, seed=1)
        counts = function_counts(trace)
        assert counts["sha256"] == 64
        assert counts["crc32"] == 64
        assert counts["sha1"] == 4

    def test_dsp_pipeline_switches_waveforms(self, default_bank):
        trace = dsp_pipeline_trace(default_bank, frames=80, waveform_switch_every=20, seed=1)
        counts = function_counts(trace)
        assert counts["fir16"] == 80 and counts["fft256"] == 80
        assert counts["matmul8"] == 4 and counts["bitonic64"] == 4

    def test_validation(self, default_bank):
        with pytest.raises(ValueError):
            ipsec_gateway_trace(default_bank, packets=0)
        with pytest.raises(ValueError):
            hash_server_trace(default_bank, requests=0)
        with pytest.raises(ValueError):
            dsp_pipeline_trace(default_bank, frames=0)
