"""Reservoir sampling in the statistics layer.

The old behaviour silently stopped appending latencies after
``max_recorded_latencies``, so percentiles on long traces only ever saw the
head of the run.  The reservoir keeps a uniform sample of the *whole* stream;
these tests pin down that tail samples are represented and that the sampling
is deterministic.
"""

import pytest

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

    def test_zero_capacity_counts_but_retains_nothing(self):
        sampler = ReservoirSampler(0, SeededRandom(0))
        for value in range(10):
            sampler.add(float(value))
        assert sampler.values == [] and sampler.seen == 10
        assert sampler.percentile(95) == 0.0
        # The statistics counterpart: a valid memory-saving configuration.
        stats = CoprocessorStatistics(max_recorded_latencies=0)
        stats.record(outcome(5.0), input_bytes=0)
        assert stats.latencies_ns == [] and stats._latency_sample.seen == 1
        assert stats.latency_percentile(95) == 0.0

    def test_percentile_of_empty(self):
        assert percentile_of([], 95) == 0.0


class TestCoprocessorStatisticsReservoir:
    def test_short_traces_identical_to_plain_append(self):
        stats = CoprocessorStatistics()
        latencies = [float(value) for value in range(500)]
        for latency in latencies:
            stats.record(outcome(latency), input_bytes=1)
        assert stats.latencies_ns == latencies
        assert stats._latency_sample.seen == 500

    def test_long_trace_tail_is_sampled(self):
        stats = CoprocessorStatistics(max_recorded_latencies=200)
        for value in range(20_000):
            stats.record(outcome(float(value)), input_bytes=0)
        assert len(stats.latencies_ns) == 200
        assert stats._latency_sample.seen == 20_000
        tail = [value for value in stats.latencies_ns if value >= 10_000]
        assert tail, "long-trace percentiles still head-biased"
        # The head-biased p95 would be ~190 (95% of the first 200 requests);
        # the uniform sample's p95 must track the full stream (~19000).
        assert stats.latency_percentile(95) > 10_000

    def test_sampling_is_deterministic_across_instances(self):
        def fill():
            stats = CoprocessorStatistics(max_recorded_latencies=50)
            for value in range(5000):
                stats.record(outcome(float(value)), input_bytes=0)
            return list(stats.latencies_ns)

        assert fill() == fill()

    def test_fresh_instances_compare_equal(self):
        assert CoprocessorStatistics() == CoprocessorStatistics()

    def test_oversized_initial_latencies_rejected(self):
        # Entries past the cap could never be displaced, permanently biasing
        # percentiles — refuse the construction outright.
        with pytest.raises(ValueError):
            CoprocessorStatistics(latencies_ns=[1.0, 2.0], max_recorded_latencies=1)

    def test_oversized_rebound_latencies_rejected(self):
        # The same cap contract holds when the public field is rebound later.
        stats = CoprocessorStatistics(max_recorded_latencies=2)
        stats.latencies_ns = [9.0, 8.0, 7.0]
        with pytest.raises(ValueError):
            stats.record(outcome(1.0), input_bytes=0)

    def test_rebinding_latencies_reattaches_the_sampler(self):
        stats = CoprocessorStatistics(max_recorded_latencies=10)
        for value in range(5):
            stats.record(outcome(float(value)), input_bytes=0)
        stats.latencies_ns = []
        stats.record(outcome(99.0), input_bytes=0)
        assert stats.latencies_ns == [99.0]
        assert stats.latency_percentile(95) == 99.0

    def test_shrinking_cap_trims_and_growing_after_overflow_rejected(self):
        stats = CoprocessorStatistics(max_recorded_latencies=10)
        for value in range(50):
            stats.record(outcome(float(value)), input_bytes=0)
        stats.max_recorded_latencies = 4
        stats.record(outcome(99.0), input_bytes=0)
        assert len(stats.latencies_ns) <= 4
        stats.max_recorded_latencies = 100  # grow after overflow: refused
        with pytest.raises(ValueError):
            stats.record(outcome(1.0), input_bytes=0)

    def test_reset_restarts_the_stream(self):
        stats = CoprocessorStatistics(max_recorded_latencies=10)
        for value in range(100):
            stats.record(outcome(float(value)), input_bytes=0)
        stats.reset()
        assert stats.latencies_ns == []
        assert stats._latency_sample.seen == 0
        stats.record(outcome(1.0), input_bytes=0)
        assert stats.latencies_ns == [1.0]
