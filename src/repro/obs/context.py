"""Distributed-trace primitives: spans, trace contexts and the tracer.

The tracing model is deliberately simulator-shaped rather than a clone of a
wall-clock tracing SDK:

* **Completed spans only.**  Instrumentation sites know both endpoints of
  every interval they care about (the kernel clock is cheap to read and
  never goes backwards), so spans are recorded once, finished, instead of
  through open/close bookkeeping.  A parent that must be recorded *after*
  its children (e.g. a root spanning a whole request) pre-allocates its
  span id with :meth:`Tracer.next_span_id` and passes it to the children.
* **Deterministic identity.**  Span ids come off a monotonic per-tracer
  counter; the simulation is single-threaded, so allocation order — and
  therefore the whole exported trace — is a pure function of the seed and
  workload.  Network requests use their transport ``request_id`` as the
  trace id; traces born inside the fleet (direct submissions, control-plane
  orders) draw *negative* ids from :meth:`Tracer.new_trace_id` so the two
  namespaces can never collide.
* **Seeded head-based sampling.**  Whether a trace is recorded is decided
  once, at its root, by hashing ``seed | trace_id`` (CRC-32) against the
  sample rate — no RNG stream is consumed, so enabling tracing can never
  perturb a workload's randomness, and the same (seed, rate) pair samples
  the same requests in every process.
* **Bounded memory.**  ``capacity`` caps retained spans; later spans are
  counted in ``dropped`` instead of retained, which with sampling is what
  keeps 10^6-request runs affordable.

All timestamps are integer nanoseconds on whatever clock the recording site
used (the shared kernel clock everywhere except bridged device sub-spans,
which are re-based onto kernel time by the bridge before recording).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One completed, immutable-by-convention interval in a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_ns", "end_ns", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        end_ns: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = "" if self.parent_id is None else f" parent={self.parent_id}"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}{parent}, "
            f"{self.start_ns}..{self.end_ns})"
        )


class TraceContext:
    """The propagated identity of one trace: trace id + parent span id.

    Carried across hops (transport → packet → gateway → fleet) by whatever
    side channel the hop already has; equality/ordering are value-based so
    contexts can key dicts in tests.
    """

    __slots__ = ("trace_id", "parent_id")

    def __init__(self, trace_id: int, parent_id: Optional[int]) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id

    def child(self, parent_id: int) -> "TraceContext":
        """The context a child hop should propagate onward."""
        return TraceContext(self.trace_id, parent_id)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.parent_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace={self.trace_id}, parent={self.parent_id})"


class Tracer:
    """Collects spans for every sampled trace of one observed system."""

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        capacity: int = 1_000_000,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.sample_rate = sample_rate
        self.seed = seed
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_span = 1
        self._next_trace = 1
        #: Inclusive CRC-32 acceptance threshold for head-based sampling.
        self._threshold = int(sample_rate * 0xFFFFFFFF)
        #: Optional tail-based retention policy (a
        #: :class:`~repro.obs.tail.TailSampler`).  When set, recorded spans
        #: are buffered per trace and only committed to ``spans`` once the
        #: whole trace is judged worth keeping.
        self.tail_sampler = None
        #: Optional per-span observer (the incident flight recorder's feed).
        #: Sees every recorded span regardless of tail retention.
        self._observer = None

    # ------------------------------------------------------------- identity
    def new_trace_id(self) -> int:
        """A fresh trace id for a trace born inside the system (negative —
        the namespace that can never collide with transport request ids)."""
        trace_id = -self._next_trace
        self._next_trace += 1
        return trace_id

    def next_span_id(self) -> int:
        """Pre-allocate a span id (for parents recorded after children)."""
        span_id = self._next_span
        self._next_span += 1
        return span_id

    def sampled(self, trace_id: int) -> bool:
        """Head-based sampling decision — pure function of (seed, trace_id)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        key = zlib.crc32(b"%d|%d" % (self.seed, trace_id))
        return key <= self._threshold

    # ------------------------------------------------------------ recording
    def record(
        self,
        name: str,
        trace_id: int,
        parent_id: Optional[int],
        start_ns: int,
        end_ns: int,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record one completed span; returns its span id.

        ``span_id`` accepts an id pre-allocated with :meth:`next_span_id`;
        otherwise a fresh one is drawn.  Times are the kernel clock's whole
        nanoseconds, stored as read.
        """
        if end_ns < start_ns:
            raise ValueError(f"span {name!r} ends before it starts")
        if span_id is None:
            span_id = self._next_span
            self._next_span = span_id + 1
        tail = self.tail_sampler
        if tail is None and self._observer is None:
            # Historical fast path: head sampling only.
            if len(self.spans) >= self.capacity:
                self.dropped += 1
                return span_id
            self.spans.append(
                Span(name, trace_id, span_id, parent_id, start_ns, end_ns, attrs)
            )
            return span_id
        span = Span(name, trace_id, span_id, parent_id, start_ns, end_ns, attrs)
        if self._observer is not None:
            self._observer(span)
        if tail is not None:
            tail.offer(self, span)
        elif len(self.spans) >= self.capacity:
            self.dropped += 1
        else:
            self.spans.append(span)
        return span_id

    def commit(self, spans: List[Span]) -> int:
        """Retain already-constructed spans (the tail sampler's keep path).

        Honours ``capacity`` the same way :meth:`record` does; returns how
        many spans were actually retained.
        """
        room = self.capacity - len(self.spans)
        if room <= 0:
            self.dropped += len(spans)
            return 0
        kept = spans[:room]
        self.spans.extend(kept)
        overflow = len(spans) - len(kept)
        if overflow > 0:
            self.dropped += overflow
        return len(kept)

    def marker(
        self,
        name: str,
        trace_id: int,
        parent_id: Optional[int],
        at_ns: int,
        **attrs: Any,
    ) -> int:
        """A zero-duration span (an event that happened *at* an instant)."""
        return self.record(name, trace_id, parent_id, at_ns, at_ns, **attrs)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def by_trace(self, trace_id: int) -> List[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[int, None] = {}
        for span in self.spans:
            if span.trace_id not in seen:
                seen[span.trace_id] = None
        return list(seen)
