"""Distributed-trace primitives: spans and the tracer.

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
* **Every trace is recorded.**  No RNG stream is consumed, so enabling
  tracing can never perturb a workload's randomness.  What is *kept* of a
  recorded trace is the tail sampler's call (:mod:`repro.obs.tail`).
* **Bounded memory.**  ``capacity`` (:data:`CAPACITY` spans) caps retained
  spans; later spans are counted in ``dropped`` instead of retained.
* **Device sub-spans are built where they are read.**  A serve's ``card.*``
  children are a pure function of the card's recorded device events and the
  instant the serve started, so the log keeps them as one
  :class:`DeviceSpans` reference per serve and a reader — the trace
  fingerprint, a kept tail-sampled tree — gets the spans.

All timestamps are integer nanoseconds on the shared kernel clock (device
events carry offsets from their serve's start, and the reference its kernel
instant).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.obs.names import device_span_name

#: Spans a tracer retains; later ones are only counted in ``dropped``.
CAPACITY = 1_000_000


class Span:
    """One completed, immutable-by-convention interval in a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_ns", "end_ns", "attrs")

    #: Spans this log entry stands for (a :class:`DeviceSpans` has its own).
    count = 1

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


class DeviceSpans:
    """One serve's ``card.*`` device sub-spans, as one unbuilt log entry.

    ``events`` is the serve's device activity as ``(component, action,
    start_offset_ns, end_offset_ns, attributes, label_prefix)`` tuples,
    offsets counted from the serve's start — a :class:`~repro.cluster.
    fastpath.ServeMemo` entry's own immutable tuple for a replayed hit, the
    drained device recorder for a fully modelled serve.  The first ``count``
    of them are the children of span ``parent_id``, numbered from
    ``first_id`` and placed at ``base_ns`` (the kernel instant the serve
    started); a ``label_prefix`` is the RAM staging label ``in:``/``out:``,
    completed with ``ordinal``.  The reference holds values only, so what
    it yields does not change when the memo is dropped or the card is RESET.
    """

    __slots__ = ("trace_id", "parent_id", "first_id", "base_ns", "events", "count", "ordinal")

    def __init__(
        self,
        trace_id: int,
        parent_id: int,
        first_id: int,
        base_ns: int,
        events: tuple,
        count: int,
        ordinal: int,
    ) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.first_id = first_id
        self.base_ns = base_ns
        self.events = events
        self.count = count
        self.ordinal = ordinal

    def first(self, count: int) -> "DeviceSpans":
        """The same reference cut to its first *count* children (a retention
        bound fell inside it)."""
        return DeviceSpans(
            self.trace_id, self.parent_id, self.first_id, self.base_ns,
            self.events, count, self.ordinal,
        )

    def __iter__(self) -> Iterator[Span]:
        trace_id = self.trace_id
        parent_id = self.parent_id
        base_ns = self.base_ns
        span_id = self.first_id
        events = self.events[: self.count]
        for component, action, start_ns, end_ns, attributes, label_prefix in events:
            attrs = dict(attributes)
            if label_prefix is not None:
                attrs["label"] = f"{label_prefix}{self.ordinal}"
            yield Span(
                device_span_name(component, action),
                trace_id,
                span_id,
                parent_id,
                base_ns + start_ns,
                base_ns + end_ns,
                attrs,
            )
            span_id += 1


class SpanLog:
    """Retained spans in record order; device sub-spans held unbuilt.

    Reads like the list of :class:`Span` it stands for — ``len`` (a running
    count: it builds nothing), iteration, indexing, slicing — while
    ``entries`` is what is actually stored: a :class:`Span`, or one
    :class:`DeviceSpans` per traced serve.  A stored span is handed out as
    itself (identity kept, mutations stick); a device sub-span is built anew
    by every read, so it is a value: two reads give equal spans, and editing
    one edits nothing.
    """

    __slots__ = ("entries", "_count")

    def __init__(self) -> None:
        self.entries: list = []
        self._count = 0

    def append(self, entry) -> None:
        self.entries.append(entry)
        self._count += entry.count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Span]:
        for entry in self.entries:
            if entry.__class__ is Span:
                yield entry
            else:
                yield from entry


class Tracer:
    """Collects spans for every trace of one observed system.

    ``spans`` is a :class:`SpanLog`: plain spans keep their identity in it,
    device sub-spans are values built by each read.
    """

    def __init__(self) -> None:
        self.capacity = CAPACITY
        self.spans = SpanLog()
        self.dropped = 0
        self._next_span = 1
        self._next_trace = 1
        #: Optional tail-based retention policy (a
        #: :class:`~repro.obs.tail.TailSampler`).  When set, recorded spans
        #: are buffered per trace and only committed to ``spans`` once the
        #: whole trace is judged worth keeping.
        self.tail_sampler = None
        #: Optional per-span observer (the incident flight recorder's feed).
        #: Sees every span handed to :meth:`record`, regardless of tail
        #: retention; device sub-spans (:meth:`record_device`) are not
        #: offered to it.
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
            # No tail sampler, no observer: :meth:`_retain` for one span, inlined.
            log = self.spans
            if log._count >= self.capacity:
                self.dropped += 1
                return span_id
            log.entries.append(
                Span(name, trace_id, span_id, parent_id, start_ns, end_ns, attrs)
            )
            log._count += 1
            return span_id
        span = Span(name, trace_id, span_id, parent_id, start_ns, end_ns, attrs)
        if self._observer is not None:
            self._observer(span)
        if tail is not None:
            tail.offer(self, span)
        else:
            self._retain(span)
        return span_id

    def record_device(
        self,
        trace_id: int,
        parent_id: int,
        base_ns: int,
        events: tuple,
        count: int,
        ordinal: int,
    ) -> None:
        """Record the first *count* of a serve's device *events* as children
        of span *parent_id* — one :class:`DeviceSpans` entry, no span built.

        Ids, ``capacity``, ``dropped`` and the tail sampler's bounds are
        charged span by span, as *count* :meth:`record` calls would.
        """
        if count <= 0:
            return
        entry = DeviceSpans(
            trace_id, parent_id, self._next_span, base_ns, events, count, ordinal
        )
        self._next_span += count
        if self.tail_sampler is not None:
            self.tail_sampler.offer(self, entry)
        else:
            self._retain(entry)

    def _retain(self, entry) -> int:
        """Keep one log entry, ``capacity`` honoured span by span; returns
        how many of its spans were retained."""
        log = self.spans
        count = entry.count
        room = self.capacity - log._count
        if count > room:
            self.dropped += count - room
            if room <= 0:
                return 0
            entry = entry.first(room)
        log.append(entry)
        return entry.count

    def commit(self, entries) -> int:
        """Retain already-recorded log entries (the tail sampler's keep
        path); returns how many spans were actually retained."""
        return sum(self._retain(entry) for entry in entries)

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
