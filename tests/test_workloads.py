"""Tests for traces, trace generators and application models."""

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
        assert trace.function_counts() == {"crc32": 2, "parity32": 1}
        assert trace.switches() == 1
        assert sum(request.payload_bytes for request in trace) == 4
        assert trace.function_sequence() == ["crc32", "crc32", "parity32"]
        assert "demo" in trace.describe()

    def test_slice_and_concatenate(self, small_bank):
        trace = repeated_trace(small_bank, "crc32", 10)
        head = trace.slice(0, 4)
        assert len(head) == 4
        combined = head.concatenate(trace.slice(4))
        assert len(combined) == 10

    def test_indexing(self, small_bank):
        trace = repeated_trace(small_bank, "crc32", 3)
        assert trace[0].function == "crc32"


class TestGenerators:
    def test_lengths_and_known_functions(self, small_bank):
        for trace in (
            uniform_trace(small_bank, 50, seed=1),
            zipf_trace(small_bank, 50, seed=1),
            phased_trace(small_bank, 50, phase_length=10, working_set=2, seed=1),
            round_robin_trace(small_bank, 50, seed=1),
            bursty_trace(small_bank, 50, seed=1),
        ):
            assert len(trace) == 50
            assert set(trace.function_counts()) <= set(small_bank.names())

    def test_seed_determinism(self, small_bank):
        first = zipf_trace(small_bank, 100, seed=5)
        second = zipf_trace(small_bank, 100, seed=5)
        third = zipf_trace(small_bank, 100, seed=6)
        assert first.function_sequence() == second.function_sequence()
        assert first.function_sequence() != third.function_sequence()

    def test_payload_sizes_follow_function_spec(self, small_bank):
        trace = uniform_trace(small_bank, 30, seed=2, payload_blocks=3)
        for request in trace:
            expected = small_bank.by_name(request.function).spec.input_bytes * 3
            assert request.payload_bytes == expected

    def test_zipf_is_skewed(self, default_bank):
        trace = zipf_trace(default_bank, 600, skew=1.4, seed=3)
        counts = sorted(trace.function_counts().values(), reverse=True)
        assert counts[0] > 2 * counts[-1]

    def test_round_robin_switches_every_repeat(self, small_bank):
        trace = round_robin_trace(small_bank, 40, repeats_per_function=1, seed=0)
        assert trace.switches() == 39
        batched = round_robin_trace(small_bank, 40, repeats_per_function=4, seed=0)
        assert batched.switches() < trace.switches()

    def test_phased_trace_limits_working_set_per_phase(self, default_bank):
        trace = phased_trace(default_bank, 200, phase_length=50, working_set=3, seed=4)
        for start in range(0, 200, 50):
            phase_functions = {request.function for request in trace.requests[start : start + 50]}
            assert len(phase_functions) <= 3

    def test_unknown_function_rejected(self, small_bank):
        with pytest.raises(KeyError):
            uniform_trace(small_bank, 5, functions=["ghost"])

    def test_interarrival_times(self, small_bank):
        trace = uniform_trace(small_bank, 20, seed=1, mean_interarrival_ns=1000.0)
        offsets = [request.arrival_offset_ns for request in trace]
        assert all(offset >= 0 for offset in offsets)
        assert any(offset > 0 for offset in offsets)

    def test_parameter_validation(self, small_bank):
        with pytest.raises(ValueError):
            round_robin_trace(small_bank, 10, repeats_per_function=0)
        with pytest.raises(ValueError):
            phased_trace(small_bank, 10, phase_length=0)
        with pytest.raises(ValueError):
            bursty_trace(small_bank, 10, mean_burst=0)


class TestApplicationModels:
    def test_ipsec_mixes_cipher_hash_and_rekey(self, default_bank):
        trace = ipsec_gateway_trace(default_bank, packets=100, rekey_interval=20, seed=1)
        counts = trace.function_counts()
        assert counts.get("modexp512", 0) == 5
        assert counts.get("aes128", 0) + counts.get("des", 0) == 100
        assert counts.get("sha1", 0) + counts.get("sha256", 0) == 100

    def test_hash_server_mostly_primary_digest(self, default_bank):
        trace = hash_server_trace(default_bank, requests=64, verify_every=16, seed=1)
        counts = trace.function_counts()
        assert counts["sha256"] == 64
        assert counts["crc32"] == 64
        assert counts["sha1"] == 4

    def test_dsp_pipeline_switches_waveforms(self, default_bank):
        trace = dsp_pipeline_trace(default_bank, frames=80, waveform_switch_every=20, seed=1)
        counts = trace.function_counts()
        assert counts["fir16"] == 80 and counts["fft256"] == 80
        assert counts["matmul8"] == 4 and counts["bitonic64"] == 4

    def test_validation(self, default_bank):
        with pytest.raises(ValueError):
            ipsec_gateway_trace(default_bank, packets=0)
        with pytest.raises(ValueError):
            hash_server_trace(default_bank, requests=0)
        with pytest.raises(ValueError):
            dsp_pipeline_trace(default_bank, frames=0)
