"""Latency recording in the statistics layer.

The old behaviour silently stopped appending latencies after a cap, so
percentiles on long traces only ever saw the head of the run.  The fleet's
reservoir keeps a uniform sample of the *whole* stream; these tests pin down
that tail samples are represented and that recording is deterministic.
"""

import pytest

from repro.cluster.stats import FleetStatistics
from repro.core.ondemand import TraceResult
from repro.core.stats import ReservoirSampler, percentile_of
from repro.sim.rand import SeededRandom


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
        assert len(sampler.values) == 16
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
        assert 3500 < sum(sampler.values) / len(sampler.values) < 6500

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

    def test_percentile_of_empty(self):
        assert percentile_of([], 95) == 0.0


class TestPercentileRange:
    """An out-of-range percentile raises whatever the mode, the sample or
    the tenant: an empty sample is no excuse to answer 0.0."""

    @pytest.mark.parametrize("percentile", [150, -1])
    def test_every_empty_percentile_checks_its_range(self, percentile):
        with pytest.raises(ValueError):
            percentile_of([], percentile)
        with pytest.raises(ValueError):
            TraceResult().latency_percentile(percentile)
        for mode in ("reservoir", "sketch"):
            stats = FleetStatistics(mode=mode)
            for call in (
                lambda: stats.latency_percentile(percentile),
                lambda: stats.latency_percentile(percentile, tenant="nobody"),
                lambda: stats.net_latency_percentile(percentile),
            ):
                with pytest.raises(ValueError):
                    call()
            assert stats.latency_percentile(50, tenant="nobody") == 0.0
            assert stats.net_latency_percentile(50) == 0.0
