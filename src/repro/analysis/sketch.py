"""Streaming, mergeable statistics sketches for million-request runs.

The fleet's reservoir samplers (:mod:`repro.cluster.stats`) are *exact* for
short traces but keep up to 50k floats per tenant — fine for the 10^2–10^4
requests of E1–E11, hopeless for a day of production traffic.  This module
provides the O(1)-memory alternatives the scale experiments run on, and the
only latency recorder a card has (:mod:`repro.core.stats`):

* :class:`StreamingQuantileSketch` — a deterministic log-bucketed quantile
  sketch (DDSketch-style).  Values are counted in geometrically spaced
  buckets ``gamma**i``; a quantile query walks the cumulative counts and
  returns the bucket midpoint, which is within a relative **value** error of
  :data:`RELATIVE_ERROR` of the true quantile of the stream.  Unlike a
  reservoir there is no sampling noise and no RNG: the sketch is a pure fold
  over the stream, so it is bit-reproducible and two sketches merge by adding
  bucket counts — exactly what the sharded fleet runner needs to combine
  per-shard latency distributions into the fleet-wide percentiles.

* :class:`WindowedTimeSeries` — fixed-width time windows over a monotone
  timestamp stream with a bounded ring of recent windows plus lifetime
  totals, for requests/s-over-time style counters that must not grow with
  the run length.

Error model (documented for the property tests): for a positive value ``v``
the sketch stores bucket ``ceil(log(v) / log(gamma))`` with
``gamma = (1 + e) / (1 - e)`` and ``e`` = :data:`RELATIVE_ERROR`; reporting
the bucket's geometric midpoint guarantees ``|estimate - v| <= e * v``.
Rank behaviour follows from value behaviour: the estimate returned for
quantile ``q`` is the bucket containing the true nearest-rank quantile, so
the estimate is within relative value error ``e`` of the exact-mode
(full-retention reservoir) answer.
"""

from __future__ import annotations

import math
from math import ceil as _ceil, log as _log
from typing import Dict, List, Optional, Tuple

#: Relative value error of every quantile estimate, and the bucket geometry
#: it gives: every sketch has the same, so any two merge.
RELATIVE_ERROR = 0.01
GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(GAMMA)


class StreamingQuantileSketch:
    """Deterministic log-bucket quantile sketch with bounded relative error.

    The memory footprint is O(number of distinct buckets), which for
    nanosecond latencies spanning [1, 10^12] at 1% relative error is a few
    hundred integers — independent of how many values are added.
    """

    #: Values below this (incl. zero) are counted separately and reported as
    #: it — latencies that small are noise here.
    min_value = 1.0

    def __init__(self) -> None:
        #: bucket index -> count; sparse because latency streams are clumpy.
        self._buckets: Dict[int, int] = {}
        #: Values below ``min_value``, counted but not bucketed.
        self._low_count = 0
        self.seen = 0
        self._min = math.inf
        self._max = -math.inf
        # value -> bucket memo: latency streams repeat values heavily (a
        # resident hit of the same payload costs the same nanoseconds), and
        # the log() is the only non-trivial arithmetic on the add path.  The
        # cap bounds the memo on streams of mostly-distinct values, where a
        # full memo degrades to one failed dict probe per add.
        self._bucket_memo: Dict[float, int] = {}

    # ------------------------------------------------------------ recording
    def add(self, value: float) -> None:
        if value < 0.0:
            raise ValueError("sketch values must be non-negative")
        self.seen += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < self.min_value:
            self._low_count += 1
            return
        memo = self._bucket_memo
        index = memo.get(value)
        if index is None:
            index = _ceil(_log(value) / _LOG_GAMMA)
            if len(memo) < 1024:
                memo[value] = index
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def bucket_index(self, value: float) -> int:
        """Bucket index for *value* (must be ``>= min_value``).

        Exposed so callers recording one value into several sketches
        (fleet-wide + per-tenant sojourns) pay the ``log()`` once and feed
        :meth:`add_with_index` with the result.
        """
        memo = self._bucket_memo
        index = memo.get(value)
        if index is None:
            index = _ceil(_log(value) / _LOG_GAMMA)
            if len(memo) < 1024:
                memo[value] = index
        return index

    def add_with_index(self, value: float, index: int) -> None:
        """Record *value* (``>= min_value``) into a precomputed bucket.

        Equivalent to :meth:`add` when *index* came from :meth:`bucket_index`.
        """
        self.seen += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def merge(self, other: "StreamingQuantileSketch") -> None:
        """Fold *other* into this sketch (bucket-count addition)."""
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self._low_count += other._low_count
        self.seen += other.seen
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    # -------------------------------------------------------------- queries
    @property
    def bucket_count(self) -> int:
        """Number of occupied buckets — the sketch's actual footprint."""
        return len(self._buckets) + (1 if self._low_count else 0)

    def _bucket_value(self, index: int) -> float:
        # Geometric midpoint of (gamma**(i-1), gamma**i]: the point whose
        # worst-case relative distance to either edge is exactly
        # :data:`RELATIVE_ERROR`.
        return 2.0 * GAMMA ** index / (GAMMA + 1.0)

    def quantile(self, q: float) -> float:
        """Value estimate at quantile ``q`` in [0, 1] (nearest rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be between 0 and 1")
        if self.seen == 0:
            return 0.0
        # Nearest-rank target matching percentile_of on a fully-retained
        # sample: index round(q * (n - 1)) of the sorted stream.
        rank = min(self.seen - 1, int(round(q * (self.seen - 1))))
        if rank < self._low_count:
            return min(self.min_value, self._max)
        cumulative = self._low_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank < cumulative:
                estimate = self._bucket_value(index)
                # Clamp to the observed range so tiny streams round nicely.
                return min(max(estimate, self._min), self._max)
        return self._max

    def percentile(self, percentile: float) -> float:
        """Drop-in for :meth:`ReservoirSampler.percentile` (0..100)."""
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be between 0 and 100")
        return self.quantile(percentile / 100.0)


class WindowedTimeSeries:
    """Per-window (count, value-sum) over a monotone timestamp stream.

    Keeps at most ``max_windows`` recent windows, so a 10^6-request run
    costs the same memory as a 10^2-request run.  Windows are aligned to
    multiples of ``window_ns`` from time zero.
    """

    def __init__(self, window_ns: int, max_windows: int) -> None:
        if window_ns <= 0:
            raise ValueError("window width must be positive")
        if max_windows < 1:
            raise ValueError("need at least one window")
        self.window_ns = window_ns
        self.max_windows = max_windows
        self._windows: Dict[int, List[float]] = {}  # index -> [count, sum]
        # Monotone streams hit the same window dozens of times in a row;
        # keeping the last (index, row) pair skips the dict probe for them.
        self._last_index: Optional[int] = None
        self._last_window: Optional[List[float]] = None

    def record(self, time_ns: int, value: float = 1.0) -> None:
        index = int(time_ns // self.window_ns)
        if index == self._last_index:
            window = self._last_window
        else:
            window = self._windows.get(index)
            if window is None:
                window = [0.0, 0.0]
                self._windows[index] = window
                if len(self._windows) > self.max_windows:
                    oldest = min(self._windows)
                    del self._windows[oldest]
                    if oldest == index:
                        # A backward jump past every retained window evicts
                        # the row it just created; don't cache an orphan.
                        self._last_index = None
                        self._last_window = None
                        return
            self._last_index = index
            self._last_window = window
        window[0] += 1.0
        window[1] += value

    def trailing(self, now_ns: int, horizon_ns: int) -> Tuple[int, float]:
        """``(count, value_sum)`` over windows touching ``(now - horizon, now]``.

        Window-granular on purpose: the SLO engine trades sub-window
        precision for O(retained windows) evaluation with zero extra state.
        Windows older than the ring has retained are simply absent, which
        under-counts long horizons on very bursty streams — callers size
        ``max_windows`` to cover their largest horizon.
        """
        lo = int((now_ns - horizon_ns) // self.window_ns)
        hi = int(now_ns // self.window_ns)
        count = 0
        value = 0.0
        for index, (window_count, window_value) in self._windows.items():
            if lo <= index <= hi:
                count += int(window_count)
                value += window_value
        return count, value


__all__ = ["StreamingQuantileSketch", "WindowedTimeSeries"]
