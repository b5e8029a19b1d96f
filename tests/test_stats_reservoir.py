"""Reservoir sampling in the statistics layer.

The old behaviour silently stopped appending latencies after
``MAX_RECORDED_LATENCIES``, so percentiles on long traces only ever saw the
head of the run.  The reservoir keeps a uniform sample of the *whole* stream;
these tests pin down that tail samples are represented and that the sampling
is deterministic.
"""

import pytest

from repro.core import stats as core_stats
from repro.core.builder import build_fleet
from repro.core.config import SMALL_CONFIG
from repro.core.stats import CoprocessorStatistics, ReservoirSampler, percentile_of
from repro.mcu.microcontroller import RequestOutcome
from repro.sim.rand import SeededRandom


def outcome(latency_ns: float, hit: bool = True) -> RequestOutcome:
    return RequestOutcome(
        function="f", output=b"", hit=hit, total_time_ns=latency_ns
    )


class TestReservoirSampler:
    def test_below_capacity_keeps_everything_in_order(self):
        sampler = ReservoirSampler(10, SeededRandom(1))
        for value in range(5):
            sampler.add(float(value))
        assert sampler.values == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert sampler.seen == 5

    def test_capacity_is_never_exceeded(self):
        sampler = ReservoirSampler(16, SeededRandom(1))
        for value in range(1000):
            sampler.add(float(value))
        assert len(sampler) == 16
        assert sampler.seen == 1000

    def test_tail_values_are_represented(self):
        sampler = ReservoirSampler(100, SeededRandom(7))
        for value in range(10_000):
            sampler.add(float(value))
        # A uniform sample of 100 out of 10k has ~1 - (1/2)^100 probability of
        # containing at least one value from the last half; with a fixed seed
        # this is deterministic, and a head-biased sample would have none.
        tail = [value for value in sampler.values if value >= 5000]
        assert tail, "reservoir contains no tail samples - head-biased"
        # The sample mean of a uniform draw tracks the stream mean (~5000).
        assert 3500 < sampler.mean < 6500

    def test_deterministic_given_seed(self):
        def fill(seed):
            sampler = ReservoirSampler(32, SeededRandom(seed))
            for value in range(2000):
                sampler.add(float(value))
            return sampler.values

        assert fill(5) == fill(5)
        assert fill(5) != fill(6)

    def test_percentiles_and_validation(self):
        sampler = ReservoirSampler(8, SeededRandom(0))
        assert sampler.percentile(95) == 0.0
        for value in (3.0, 1.0, 2.0):
            sampler.add(value)
        assert sampler.percentile(0) == 1.0
        assert sampler.percentile(100) == 3.0
        with pytest.raises(ValueError):
            sampler.percentile(150)
        with pytest.raises(ValueError):
            ReservoirSampler(-1)

    def test_zero_capacity_counts_but_retains_nothing(self, monkeypatch):
        sampler = ReservoirSampler(0, SeededRandom(0))
        for value in range(10):
            sampler.add(float(value))
        assert sampler.values == [] and sampler.seen == 10
        assert sampler.percentile(95) == 0.0
        # The statistics counterpart: a valid memory-saving configuration.
        monkeypatch.setattr(core_stats, "MAX_RECORDED_LATENCIES", 0)
        stats = CoprocessorStatistics()
        stats.record(outcome(5.0), input_bytes=0)
        assert stats._latency_sample.values == [] and stats._latency_sample.seen == 1
        assert stats.latency_percentile(95) == 0.0

    def test_percentile_of_empty(self):
        assert percentile_of([], 95) == 0.0


def recorded(stats):
    """The latencies a reservoir-mode statistics object currently keeps."""
    return stats._latency_sample.values


class TestCoprocessorStatisticsReservoir:
    def test_short_traces_identical_to_plain_append(self):
        stats = CoprocessorStatistics()
        latencies = [float(value) for value in range(500)]
        for latency in latencies:
            stats.record(outcome(latency), input_bytes=1)
        assert recorded(stats) == latencies
        assert stats._latency_sample.seen == 500

    def test_long_trace_tail_is_sampled(self, monkeypatch):
        monkeypatch.setattr(core_stats, "MAX_RECORDED_LATENCIES", 200)
        stats = CoprocessorStatistics()
        for value in range(20_000):
            stats.record(outcome(float(value)), input_bytes=0)
        assert len(recorded(stats)) == 200
        assert stats._latency_sample.seen == 20_000
        tail = [value for value in recorded(stats) if value >= 10_000]
        assert tail, "long-trace percentiles still head-biased"
        # The head-biased p95 would be ~190 (95% of the first 200 requests);
        # the uniform sample's p95 must track the full stream (~19000).
        assert stats.latency_percentile(95) > 10_000

    def test_sampling_is_deterministic_across_instances(self, monkeypatch):
        monkeypatch.setattr(core_stats, "MAX_RECORDED_LATENCIES", 50)

        def fill():
            stats = CoprocessorStatistics()
            for value in range(5000):
                stats.record(outcome(float(value)), input_bytes=0)
            return list(recorded(stats))

        assert fill() == fill()

    def test_fresh_instances_compare_equal(self):
        assert CoprocessorStatistics() == CoprocessorStatistics()

    def test_reset_restarts_the_stream(self, monkeypatch):
        monkeypatch.setattr(core_stats, "MAX_RECORDED_LATENCIES", 10)
        stats = CoprocessorStatistics()
        for value in range(100):
            stats.record(outcome(float(value)), input_bytes=0)
        stats.reset()
        assert recorded(stats) == []
        assert stats._latency_sample.seen == 0
        stats.record(outcome(1.0), input_bytes=0)
        assert recorded(stats) == [1.0]


class TestLatencyModeSurvivesReset:
    def test_statistics_reset_keeps_the_sketch(self):
        stats = CoprocessorStatistics()
        stats.use_sketch()
        stats.record(outcome(5.0), input_bytes=0)
        stats.reset()
        assert (stats.latency_mode, stats.requests) == ("sketch", 0)
        assert recorded(stats) == [] and stats._latency_sketch.seen == 0
        stats.record(outcome(7.0), input_bytes=0)
        assert recorded(stats) == [] and stats._latency_sketch.seen == 1

    def test_a_card_reset_keeps_sketch_recording(self, small_bank):
        fleet = build_fleet(cards=1, config=SMALL_CONFIG, bank=small_bank, stats_mode="sketch")
        driver = fleet.cards[0].driver
        assert driver.coprocessor.stats.latency_mode == "sketch"
        driver.reset_card()
        stats = driver.coprocessor.stats
        assert stats.latency_mode == "sketch"
        driver.call("crc32", b"abc")
        assert recorded(stats) == [] and stats.latency_percentile(50) > 0
