"""Tests for the baselines and the trace runner."""

from collections import Counter

import pytest

from repro.baselines import FullReconfigEngine, HostOnlyEngine, StaticFixedEngine
from repro.baselines.host_only import HOST_CLOCK_HZ, SOFTWARE_SLOWDOWN
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


@pytest.fixture
def tiny_config():
    """Four frames: every small-bank function fits but crc32 (seven frames)."""
    return SMALL_CONFIG.with_overrides(fabric_columns=2, fabric_rows=8, clb_rows_per_frame=4)


class TestHostOnlyEngine:
    def test_outputs_match_reference(self, bank):
        engine = HostOnlyEngine(bank)
        data = bytes(range(32))
        result = engine.execute("crc32", data)
        assert result.output == bank.by_name("crc32").behaviour(data)
        assert result.hit
        assert result.latency_ns == engine.software_time_ns("crc32", len(data)) > 0

    def test_latency_scales_with_input_and_slowdown(self, bank):
        engine = HostOnlyEngine(bank)
        small = engine.software_time_ns("crc32", 16)
        large = engine.software_time_ns("crc32", 1024)
        assert large > small
        crc32 = bank.by_name("crc32")
        assert SOFTWARE_SLOWDOWN == 40.0
        assert large == round(crc32.software_cycles(1024, SOFTWARE_SLOWDOWN) / HOST_CLOCK_HZ * 1e9)
        assert crc32.software_cycles(1024, 2 * SOFTWARE_SLOWDOWN) == 2 * crc32.software_cycles(1024, SOFTWARE_SLOWDOWN)


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
    def test_resident_functions_offloaded_others_fall_back(self, bank, tiny_config):
        static = StaticFixedEngine(tiny_config, bank)
        offloaded = static.execute("parity32", bytes(4))
        fallback = static.execute("crc32", b"xyz")
        assert offloaded.hit
        assert fallback.latency_ns == static.fallback.software_time_ns("crc32", 3)
        assert fallback.output == bank.by_name("crc32").behaviour(b"xyz")

    def test_greedy_fill_when_no_set_given(self, bank, config, tiny_config):
        assert StaticFixedEngine(config, bank).resident == bank.names()
        assert StaticFixedEngine(tiny_config, bank).resident == ["parity32", "adder8", "popcount8"]


class TestTraceRunner:
    def test_runs_trace_and_aggregates(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 40, seed=2)
        result = TraceRunner(copro).run(trace)
        assert result.requests == 40
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.mean_latency_ns > 0
        assert result.total_time_ns >= sum(record.latency_ns for record in result.records) * 0.99
        assert result.total_time_ns > 0

    def test_repeated_trace_has_high_hit_rate(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        result = TraceRunner(copro).run(repeated_trace(bank, "crc32", 20))
        assert result.hits == 19 and result.requests - result.hits == 1

    def test_per_function_latency_and_percentiles(self, bank, config):
        copro = build_coprocessor(config=config, bank=bank)
        trace = uniform_trace(bank, 30, seed=4)
        result = TraceRunner(copro).run(trace)
        busiest = Counter(request.function for request in trace).most_common(1)[0][0]
        assert all(
            record.latency_ns > 0
            for record, request in zip(result.records, trace)
            if request.function == busiest
        )
        assert result.latency_percentile(50) <= result.latency_percentile(99)

    def test_total_time_is_the_engine_clocks_advance(self, bank, config):
        """Closed loop: each request starts when the previous one completes,
        for every engine, since every engine has a clock."""
        engines = [
            build_coprocessor(config=config, bank=bank),
            HostOnlyEngine(bank),
            FullReconfigEngine(config, bank),
            StaticFixedEngine(config, bank),
        ]
        trace = uniform_trace(bank, 10, seed=6)
        for engine in engines:
            started_ns = engine.clock.now
            result = TraceRunner(engine).run(trace)
            assert result.total_time_ns == engine.clock.now - started_ns > 0
