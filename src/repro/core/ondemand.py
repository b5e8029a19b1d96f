"""Trace execution: running workloads through an execution engine.

The :class:`TraceRunner` drives a :class:`~repro.workloads.trace.Trace`
through any *execution engine* — the agile co-processor, one of the baselines
in :mod:`repro.baselines`, or anything else exposing a simulated ``clock``
and ``execute(name, data) -> result`` where the result has ``latency_ns`` and
``hit`` attributes.  It produces a :class:`TraceResult` with
per-request records and the aggregate metrics the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Protocol

from repro.sim.clock import Clock
from repro.workloads.trace import Trace


class ExecutionEngine(Protocol):
    """What the trace runner requires of an engine: a simulated clock, and
    ``execute``."""

    clock: Clock

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
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_latency_ns(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.latency_ns for record in self.records) / len(self.records)

    def latency_percentile(self, percentile: float) -> float:
        from repro.core.stats import percentile_of

        return percentile_of(sorted(record.latency_ns for record in self.records), percentile)


class TraceRunner:
    """Runs traces against execution engines."""

    def __init__(self, engine: ExecutionEngine) -> None:
        self.engine = engine

    def run(self, trace: Trace) -> TraceResult:
        """Execute *trace* request by request (closed loop)."""
        result = TraceResult()
        clock = self.engine.clock
        started_ns = clock.now
        for request in trace:
            outcome = self.engine.execute(request.function, request.payload)
            result.records.append(
                RequestRecord(
                    latency_ns=getattr(outcome, "latency_ns"),
                    hit=bool(getattr(outcome, "hit", True)),
                )
            )
        result.total_time_ns = clock.now - started_ns
        return result
