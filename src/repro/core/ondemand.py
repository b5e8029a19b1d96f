"""Trace execution: running workloads through an execution engine.

The :class:`TraceRunner` drives a :class:`~repro.workloads.trace.Trace`
through any *execution engine* — the agile co-processor, one of the baselines
in :mod:`repro.baselines`, or anything else exposing
``execute(name, data) -> result`` where the result has ``latency_ns`` and
``hit`` attributes.  It produces a :class:`TraceResult` with
per-request records and the aggregate metrics the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Protocol

from repro.workloads.trace import Trace


class ExecutionEngine(Protocol):
    """What the trace runner requires of an engine."""

    def execute(self, name: str, data: bytes) -> Any:  # pragma: no cover - protocol
        ...


@dataclass
class RequestRecord:
    """Outcome of one trace request."""

    latency_ns: int
    hit: bool


@dataclass
class TraceResult:
    """Aggregate results of one trace run."""

    records: List[RequestRecord] = field(default_factory=list)
    total_time_ns: int = 0

    # -------------------------------------------------------------- derived
    @property
    def requests(self) -> int:
        return len(self.records)

    @property
    def hits(self) -> int:
        return sum(1 for record in self.records if record.hit)

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_latency_ns(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.latency_ns for record in self.records) / len(self.records)

    @property
    def total_latency_ns(self) -> int:
        return sum(record.latency_ns for record in self.records)

    def latency_percentile(self, percentile: float) -> float:
        from repro.core.stats import percentile_of

        return percentile_of(sorted(record.latency_ns for record in self.records), percentile)

    @property
    def throughput_requests_per_s(self) -> float:
        if self.total_time_ns <= 0:
            return 0.0
        return self.requests / (self.total_time_ns / 1e9)


class TraceRunner:
    """Runs traces against execution engines."""

    def __init__(self, engine: ExecutionEngine) -> None:
        self.engine = engine

    def run(self, trace: Trace, limit: Optional[int] = None) -> TraceResult:
        """Execute *trace* request by request (closed loop)."""
        result = TraceResult()
        requests = trace.requests if limit is None else trace.requests[:limit]
        clock = getattr(self.engine, "clock", None)
        started_ns = clock.now if clock is not None else 0
        for request in requests:
            if clock is not None and request.arrival_offset_ns:
                clock.advance(request.arrival_offset_ns)
            outcome = self.engine.execute(request.function, request.payload)
            result.records.append(
                RequestRecord(
                    latency_ns=getattr(outcome, "latency_ns"),
                    hit=bool(getattr(outcome, "hit", True)),
                )
            )
        if clock is not None:
            result.total_time_ns = clock.now - started_ns
        else:
            result.total_time_ns = result.total_latency_ns
        return result
