"""Aggregate statistics over a co-processor's lifetime."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.sketch import StreamingQuantileSketch
from repro.mcu.microcontroller import RequestOutcome
from repro.sim.rand import SeededRandom


def percentile_of(ordered: List[float], percentile: float) -> float:
    """Nearest-rank percentile (0..100) of an already-sorted sample."""
    if not ordered:
        return 0.0
    if not 0 <= percentile <= 100:
        raise ValueError("percentile must be between 0 and 100")
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

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, percentile: float) -> float:
        return percentile_of(sorted(self.values), percentile)

    def percentiles(self, wanted: "Sequence[float]") -> List[float]:
        """Several percentiles off a single sort of the sample."""
        ordered = sorted(self.values)
        return [percentile_of(ordered, percentile) for percentile in wanted]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0


@dataclass
class CoprocessorStatistics:
    """Counters and per-phase time totals across every request served."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    total_latency_ns: int = 0
    total_reconfig_ns: int = 0
    total_execute_ns: int = 0
    total_data_movement_ns: int = 0
    per_function_requests: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    per_function_latency_ns: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    latencies_ns: List[int] = field(default_factory=list)
    #: Cap on retained per-request latencies (percentiles stay meaningful while
    #: memory stays bounded for very long traces).
    max_recorded_latencies: int = 100_000
    #: ``"reservoir"`` (default, historical behaviour) keeps a seeded uniform
    #: sample of latencies; ``"sketch"`` records them into an O(1)-memory
    #: streaming quantile sketch instead — no retained list, no RNG — for
    #: million-request runs.  Switch with :meth:`use_sketch` before the first
    #: request.
    latency_mode: str = "reservoir"
    _latency_sample: ReservoirSampler = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.latency_mode not in ("reservoir", "sketch"):
            raise ValueError(f"unknown latency mode {self.latency_mode!r}")
        # The fixed seed keeps percentile results identical across runs and
        # processes; the sampler shares the latencies_ns list so the public
        # field keeps working, and counts any pre-populated values as seen.
        if len(self.latencies_ns) > self.max_recorded_latencies:
            raise ValueError(
                "pre-populated latencies_ns exceeds max_recorded_latencies; "
                "entries past the cap could never be displaced by the sampler"
            )
        self._latency_sample = ReservoirSampler(
            self.max_recorded_latencies, SeededRandom(0x51A7)
        )
        self._latency_sample.values = self.latencies_ns
        self._latency_sample.seen = len(self.latencies_ns)
        self._latency_sketch = (
            StreamingQuantileSketch() if self.latency_mode == "sketch" else None
        )

    def use_sketch(self, relative_error: float = 0.01) -> None:
        """Switch latency recording to the O(1)-memory sketch.

        Only valid before the first request: mixing a half-filled reservoir
        with a half-filled sketch would make the percentiles meaningless.
        """
        if self.requests:
            raise ValueError("cannot switch latency mode after recording began")
        self.latency_mode = "sketch"
        self._latency_sketch = StreamingQuantileSketch(relative_error=relative_error)

    # ------------------------------------------------------------- recording
    def record(self, outcome: RequestOutcome, input_bytes: int) -> None:
        """Fold one request outcome into the aggregates."""
        self.requests += 1
        if outcome.hit:
            self.hits += 1
        else:
            self.misses += 1
        self.evictions += len(outcome.evictions)
        self.bytes_in += input_bytes
        self.bytes_out += len(outcome.output)
        self.total_latency_ns += outcome.total_time_ns
        self.total_reconfig_ns += outcome.reconfig_time_ns
        self.total_execute_ns += outcome.execute_time_ns
        self.total_data_movement_ns += (
            outcome.stage_input_time_ns
            + outcome.feed_time_ns
            + outcome.collect_time_ns
            + outcome.readout_time_ns
        )
        self.per_function_requests[outcome.function] += 1
        self.per_function_latency_ns[outcome.function] += outcome.total_time_ns
        if self.latency_mode == "sketch":
            self._latency_sketch.add(outcome.total_time_ns)
            return
        # Reservoir sampling: below the cap this appends exactly as before;
        # past the cap each new latency displaces a random retained one, so
        # the sample stays uniform over the full trace instead of freezing on
        # the first max_recorded_latencies requests.
        sample = self._latency_sample
        if sample.values is not self.latencies_ns:
            # The public field was rebound (e.g. ``stats.latencies_ns = []``):
            # re-attach the sampler and restart its stream on the new list,
            # under the same cap contract the constructor enforces.  Runs
            # before the cap check below so a rebind-plus-cap change is
            # judged against the new stream, not the abandoned one.
            if len(self.latencies_ns) > self.max_recorded_latencies:
                raise ValueError(
                    "rebound latencies_ns exceeds max_recorded_latencies; "
                    "entries past the cap could never be displaced by the sampler"
                )
            sample.values = self.latencies_ns
            sample.seen = len(self.latencies_ns)
        if sample.capacity != self.max_recorded_latencies:
            # The cap is a public field callers may adjust after construction
            # (the pre-reservoir code consulted it on every record call);
            # shrinking below the current sample size trims the sample.
            if self.max_recorded_latencies < 0:
                raise ValueError("reservoir capacity cannot be negative")
            if (
                self.max_recorded_latencies > sample.capacity
                and sample.seen > len(sample.values)
            ):
                # Freshly-opened slots would fill with only recent values,
                # over-representing the tail — the sample is no longer uniform.
                raise ValueError(
                    "cannot grow max_recorded_latencies after the reservoir "
                    "overflowed; reset() the statistics first"
                )
            sample.capacity = self.max_recorded_latencies
            while len(self.latencies_ns) > self.max_recorded_latencies:
                # Swap-remove a uniformly-chosen survivor: trimming the list
                # tail instead would keep only the stream's head — the same
                # bias the grow branch above refuses to introduce.
                index = sample.rng.integer(0, len(self.latencies_ns) - 1)
                self.latencies_ns[index] = self.latencies_ns[-1]
                self.latencies_ns.pop()
        sample.add(outcome.total_time_ns)

    def record_hit_replay(
        self,
        outcome: RequestOutcome,
        function: str,
        input_bytes: int,
        output_bytes: int,
        total_time_ns: int,
        reconfig_time_ns: int,
        execute_time_ns: int,
        data_movement_ns: int,
    ) -> None:
        """Fold a replayed clean hit (no evictions) — the memo fast path.

        Equal to :meth:`record` for the same outcome: every addend is
        precomputed once by the caller and the hit/no-eviction branch
        outcomes are baked in.  Reservoir mode defers
        to :meth:`record` so the sampler's rebind/cap bookkeeping stays in one
        place; sketch mode — the million-request configuration — takes the
        straight-line path.
        """
        if self.latency_mode != "sketch":
            self.record(outcome, input_bytes)
            return
        self.requests += 1
        self.hits += 1
        self.bytes_in += input_bytes
        self.bytes_out += output_bytes
        self.total_latency_ns += total_time_ns
        self.total_reconfig_ns += reconfig_time_ns
        self.total_execute_ns += execute_time_ns
        self.total_data_movement_ns += data_movement_ns
        self.per_function_requests[function] += 1
        self.per_function_latency_ns[function] += total_time_ns
        self._latency_sketch.add(total_time_ns)

    # -------------------------------------------------------------- derived
    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0

    @property
    def mean_reconfig_ns(self) -> float:
        return self.total_reconfig_ns / self.misses if self.misses else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (0..100) over the sampled requests."""
        if self.latency_mode == "sketch":
            return self._latency_sketch.percentile(percentile)
        return percentile_of(sorted(self.latencies_ns), percentile)

    def reset(self) -> None:
        self.__init__()  # type: ignore[misc]

    # ------------------------------------------------------------ reporting
    def summary(self) -> Dict[str, float]:
        """Flat dictionary used by the analysis/report helpers."""
        return {
            "requests": float(self.requests),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
            "mean_latency_ns": self.mean_latency_ns,
            "p95_latency_ns": self.latency_percentile(95),
            "mean_reconfig_ns": self.mean_reconfig_ns,
            "total_execute_ns": self.total_execute_ns,
            "total_data_movement_ns": self.total_data_movement_ns,
        }

    def describe(self) -> str:
        lines = [
            f"requests           : {self.requests}",
            f"hit rate           : {self.hit_rate:.3f}",
            f"evictions          : {self.evictions}",
            f"mean latency       : {self.mean_latency_ns / 1e3:.2f} us",
            f"p95 latency        : {self.latency_percentile(95) / 1e3:.2f} us",
            f"mean reconfig time : {self.mean_reconfig_ns / 1e3:.2f} us",
        ]
        return "\n".join(lines)
