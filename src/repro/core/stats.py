"""Aggregate statistics over a co-processor's lifetime."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.mcu.microcontroller import ExecutionResult
from repro.sim.rand import SeededRandom


def percentile_of(ordered: List[float], percentile: float) -> float:
    """Nearest-rank percentile (0..100) of an already-sorted sample; 0.0 of
    an empty one (the range is checked either way)."""
    if not 0 <= percentile <= 100:
        raise ValueError("percentile must be between 0 and 100")
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(percentile / 100 * (len(ordered) - 1))))
    return ordered[index]


class ReservoirSampler:
    """Uniform sample of a value stream with bounded memory (Algorithm R).

    Once *capacity* values have been kept, each later value replaces a random
    slot with probability ``capacity / seen`` — so the retained sample stays a
    uniform draw over the whole stream and tail values are as likely to be
    present as head values.  All randomness comes from a :class:`SeededRandom`,
    keeping long-trace percentiles reproducible across processes.
    """

    def __init__(self, capacity: int, rng: Optional[SeededRandom] = None) -> None:
        if capacity < 0:
            raise ValueError("reservoir capacity cannot be negative")
        # capacity 0 is a valid "count but retain nothing" configuration.
        self.capacity = capacity
        self.rng = rng if rng is not None else SeededRandom(0)
        self.values: List[float] = []
        self.seen = 0

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self.rng.integer(0, self.seen - 1)
        if slot < self.capacity:
            self.values[slot] = value

    def percentile(self, percentile: float) -> float:
        return percentile_of(sorted(self.values), percentile)

    def percentiles(self, wanted: "Sequence[float]") -> List[float]:
        """Several percentiles off a single sort of the sample."""
        ordered = sorted(self.values)
        return [percentile_of(ordered, percentile) for percentile in wanted]


@dataclass
class CoprocessorStatistics:
    """Counters and time totals across every request served."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    total_reconfig_ns: int = 0
    per_function_requests: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    # ------------------------------------------------------------- recording
    def record(self, result: ExecutionResult) -> None:
        """Fold one request's result into the aggregates."""
        self.requests += 1
        if result.hit:
            self.hits += 1
        else:
            self.misses += 1
        self.evictions += len(result.evictions)
        self.total_reconfig_ns += result.reconfig_time_ns
        self.per_function_requests[result.function] += 1

    def record_hit_replay(self, function: str) -> None:
        """Fold a replayed clean hit (no evictions, no reconfiguration) — the
        memo fast path.  Equal to :meth:`record` for the same result."""
        self.requests += 1
        self.hits += 1
        self.per_function_requests[function] += 1

    # -------------------------------------------------------------- derived
    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_reconfig_ns(self) -> float:
        return self.total_reconfig_ns / self.misses if self.misses else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()  # type: ignore[misc]
