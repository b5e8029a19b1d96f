"""Property tests for the O(1)-memory streaming statistics sketches.

The documented contract (see ``repro/analysis/sketch.py``): a quantile
estimate is within relative **value** error ``e`` of the exact nearest-rank
quantile of the stream, the sketch is a deterministic pure fold (no RNG), and
two sketches over disjoint halves of a stream merge into the sketch of the
whole stream.  The property tests below check all three against brute-force
sorted streams.
"""

import math
import random

import pytest

from repro.analysis.sketch import GAMMA, RELATIVE_ERROR, StreamingQuantileSketch, WindowedTimeSeries


def exact_nearest_rank(values, q):
    """The estimator the sketch documents parity with (index round(q*(n-1)))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def latency_like_stream(seed, count, *, low=200.0, high=5e6):
    """A clumpy, repeat-heavy positive stream like the fleet's sojourn times."""
    rng = random.Random(seed)
    distinct = [math.exp(rng.uniform(math.log(low), math.log(high))) for _ in range(64)]
    return [distinct[min(int(rng.expovariate(0.15)), 63)] for _ in range(count)]


class TestQuantileAccuracy:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_p50_p95_p99_within_relative_value_error(self, seed):
        values = latency_like_stream(seed, 5_000)
        sketch = StreamingQuantileSketch()
        for value in values:
            sketch.add(value)
        for q in (0.50, 0.95, 0.99):
            exact = exact_nearest_rank(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= RELATIVE_ERROR * exact + 1e-9, (
                f"q={q}: estimate {estimate} vs exact {exact}"
            )

    def test_uniform_integers_within_bound(self):
        # A non-clumpy stream: every value distinct, overflowing the bucket memo.
        values = [float(v) for v in range(1, 4_001)]
        sketch = StreamingQuantileSketch()
        for value in values:
            sketch.add(value)
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0):
            exact = exact_nearest_rank(values, q)
            assert abs(sketch.quantile(q) - exact) <= RELATIVE_ERROR * exact + 1e-9

    def test_extremes_clamped_to_observed_range(self):
        sketch = StreamingQuantileSketch()
        for value in (10.0, 100.0, 1000.0):
            sketch.add(value)
        assert sketch.quantile(0.0) >= 10.0 - 1e-9
        assert sketch.quantile(1.0) <= 1000.0 + 1e-9

    def test_memory_is_bounded_by_bucket_count(self):
        sketch = StreamingQuantileSketch()
        rng = random.Random(3)
        for _ in range(50_000):
            sketch.add(rng.uniform(1.0, 1e9))
        # log(1e9)/log(gamma) buckets at most — hundreds, never O(n).
        ceiling = int(math.log(1e9) / math.log(GAMMA)) + 2
        assert sketch.bucket_count <= ceiling
        assert len(sketch._bucket_memo) <= 1024
        assert sketch.seen == 50_000


class TestDeterminismAndMerge:
    def test_pure_fold_is_reproducible(self):
        values = latency_like_stream(9, 2_000)
        first, second = StreamingQuantileSketch(), StreamingQuantileSketch()
        for value in values:
            first.add(value)
        for value in values:
            second.add(value)
        assert vars(first) == vars(second)

    def test_merge_equals_single_sketch_over_whole_stream(self):
        values = latency_like_stream(11, 3_000)
        whole = StreamingQuantileSketch()
        left, right = StreamingQuantileSketch(), StreamingQuantileSketch()
        for value in values:
            whole.add(value)
        for value in values[: len(values) // 2]:
            left.add(value)
        for value in values[len(values) // 2 :]:
            right.add(value)
        left.merge(right)
        assert left._buckets == whole._buckets
        assert left.seen == whole.seen
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == whole.quantile(q)

    def test_add_with_index_matches_add(self):
        values = latency_like_stream(13, 1_000)
        plain, indexed = StreamingQuantileSketch(), StreamingQuantileSketch()
        for value in values:
            plain.add(value)
            if value >= indexed.min_value:
                indexed.add_with_index(value, indexed.bucket_index(value))
            else:
                indexed.add(value)
        assert plain._buckets == indexed._buckets
        assert plain.seen == indexed.seen

    def test_low_values_counted_not_bucketed(self):
        sketch = StreamingQuantileSketch()
        sketch.min_value = 10.0
        sketch.add(0.0)
        sketch.add(5.0)
        sketch.add(100.0)
        assert sketch._low_count == 2
        assert sketch.seen == 3
        assert sketch.quantile(0.0) == 10.0  # reported as min_value

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            StreamingQuantileSketch().add(-1.0)


class TestWindowedTimeSeries:
    def test_counts_and_sums_per_window(self):
        series = WindowedTimeSeries(window_ns=100.0, max_windows=256)
        for time_ns, value in ((10, 2.0), (20, 3.0), (150, 1.0), (260, 4.0)):
            series.record(time_ns, value)
        assert series._windows == {0: [2.0, 5.0], 1: [1.0, 1.0], 2: [1.0, 4.0]}

    def test_eviction_bounds_memory(self):
        series = WindowedTimeSeries(window_ns=10.0, max_windows=4)
        for step in range(100):
            series.record(step * 10.0)
        assert sorted(series._windows) == [96, 97, 98, 99]

    def test_monotone_cache_matches_dict_path(self):
        cached = WindowedTimeSeries(window_ns=50.0, max_windows=256)
        for step in range(500):
            cached.record(step * 7.0, 0.5)
        # Same stream recorded out of cache-friendly order (shuffled).
        shuffled = WindowedTimeSeries(window_ns=50.0, max_windows=256)
        times = [step * 7.0 for step in range(500)]
        random.Random(5).shuffle(times)
        for time_ns in times:
            shuffled.record(time_ns, 0.5)
        assert cached._windows == shuffled._windows

    def test_backward_jump_does_not_cache_evicted_row(self):
        series = WindowedTimeSeries(window_ns=10.0, max_windows=2)
        series.record(500.0)
        series.record(600.0)
        # Backward jump below every retained window: the new row is evicted
        # immediately, and the cache must not point at the orphan.
        series.record(0.0)
        assert sorted(series._windows) == [50, 60]
        series.record(600.0)  # must not resurrect the orphan row
        assert series._windows[60] == [2.0, 2.0]

    def test_trailing_counts_only_the_horizon_windows(self):
        series = WindowedTimeSeries(window_ns=100.0, max_windows=256)
        for time_ns, value in ((50.0, 1.0), (150.0, 2.0), (250.0, 4.0)):
            series.record(time_ns, value)
        # Horizon of one window at t=260: windows 1 and 2 are in range
        # (window-granular: the horizon rounds out to whole windows).
        count, value = series.trailing(260.0, 100.0)
        assert (count, value) == (2, 6.0)
        # A horizon spanning everything returns the lifetime totals.
        assert series.trailing(260.0, 1_000.0) == (3, 7.0)


class TestHistogramPercentileEdges:
    def test_empty_histogram_reports_zero(self):
        histogram = StreamingQuantileSketch()
        assert histogram.seen == 0
        assert histogram.percentile(50) == 0.0

    def test_single_observation_is_every_percentile(self):
        histogram = StreamingQuantileSketch()
        histogram.add(42_000.0)
        for percentile in (0, 50, 95, 99, 100):
            assert histogram.percentile(percentile) == 42_000.0
