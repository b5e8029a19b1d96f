"""Tests for the baselines and the trace runner."""

import pytest

from repro.baselines import FullReconfigEngine, HostOnlyEngine, StaticFixedEngine
from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.core.ondemand import TraceRunner
from repro.functions.bank import build_small_bank
from repro.workloads import repeated_trace, uniform_trace


@pytest.fixture
def bank():
    return build_small_bank()


@pytest.fixture
def config():
    return SMALL_CONFIG.with_overrides(seed=11)


class TestHostOnlyEngine:
    def test_outputs_match_reference(self, bank):
        engine = HostOnlyEngine(bank)
        data = bytes(range(32))
        result = engine.execute("crc32", data)
        assert result.output == bank.by_name("crc32").behaviour(data)
        assert result.hit
        assert result.latency_ns == engine.software_time_ns("crc32", len(data)) > 0

    def test_latency_scales_with_input_and_slowdown(self, bank):
        engine = HostOnlyEngine(bank, software_slowdown=20.0)
        small = engine.software_time_ns("crc32", 16)
        large = engine.software_time_ns("crc32", 1024)
        assert large > small
        slower = HostOnlyEngine(bank, software_slowdown=40.0)
        assert slower.software_time_ns("crc32", 1024) > large

    def test_invalid_parameters(self, bank):
        with pytest.raises(ValueError):
            HostOnlyEngine(bank, software_slowdown=0)


class TestFullReconfigEngine:
    def test_switching_pays_full_device_cost(self, bank, config):
        full = FullReconfigEngine(config, bank)
        agile = build_coprocessor(config=config, bank=bank)
        steps = (("crc32", b"abc", False), ("crc32", b"abc", True), ("parity32", bytes(4), False))
        for name, data, hit in steps:
            result, partial = full.execute(name, data), agile.execute(name, data)
            assert result.hit is hit
            # A miss pays the rest of the device on top of the partial cost.
            assert (result.latency_ns > partial.latency_ns) is not hit

    def test_only_one_function_resident(self, bank, config):
        full = FullReconfigEngine(config, bank)
        full.execute("crc32", b"abc")
        full.execute("parity32", bytes(4))
        assert full.coprocessor.loaded_functions() == ["parity32"]

    def test_outputs_still_correct(self, bank, config):
        full = FullReconfigEngine(config, bank)
        data = bytes(range(16))
        assert full.execute("crc32", data).output == bank.by_name("crc32").behaviour(data)


class TestStaticFixedEngine:
    def test_resident_functions_offloaded_others_fall_back(self, bank, config):
        static = StaticFixedEngine(config, bank, resident_functions=["crc32", "adder8"])
        offloaded = static.execute("crc32", b"xyz")
        fallback = static.execute("parity32", bytes(4))
        assert offloaded.hit
        assert fallback.latency_ns == static.fallback.software_time_ns("parity32", 4)
        assert fallback.output == bank.by_name("parity32").behaviour(bytes(4))

    def test_greedy_fill_when_no_set_given(self, bank, config):
        static = StaticFixedEngine(config, bank)
        assert len(static.resident) >= 1

    def test_oversized_static_set_rejected(self, bank):
        tiny = SMALL_CONFIG.with_overrides(fabric_columns=2, fabric_rows=8, clb_rows_per_frame=4)
        with pytest.raises(ValueError):
            StaticFixedEngine(tiny, bank, resident_functions=["crc32"])


class TestTraceRunner:
    def test_runs_trace_and_aggregates(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 40, seed=2)
        result = TraceRunner(copro).run(trace)
        assert result.requests == 40
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.mean_latency_ns > 0
        assert result.total_time_ns >= result.total_latency_ns * 0.99
        assert result.throughput_requests_per_s > 0

    def test_limit_parameter(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 40, seed=2)
        result = TraceRunner(copro).run(trace, limit=10)
        assert result.requests == 10

    def test_repeated_trace_has_high_hit_rate(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        result = TraceRunner(copro).run(repeated_trace(bank, "crc32", 20))
        assert result.hits == 19 and result.misses == 1

    def test_per_function_latency_and_percentiles(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 30, seed=4)
        result = TraceRunner(copro).run(trace)
        busiest = max(trace.function_counts(), key=trace.function_counts().get)
        assert all(
            record.latency_ns > 0
            for record, request in zip(result.records, trace)
            if request.function == busiest
        )
        assert result.latency_percentile(50) <= result.latency_percentile(99)

    def test_arrival_offsets_advance_the_engine_clock(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 10, seed=6, mean_interarrival_ns=10_000.0)
        result = TraceRunner(copro).run(trace)
        assert result.total_time_ns > result.total_latency_ns
