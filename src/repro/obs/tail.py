"""Tail-based trace sampling: keep the *interesting* traces, whole.

The :class:`~repro.obs.context.Tracer` records every trace; keeping them
all is what a long run cannot afford, and a fair random slice is exactly
the wrong slice when something breaks: the one slow request in ten thousand
is kept at the same rate as the boring ones.  A :class:`TailSampler` decides
at the *end* of each trace: spans are buffered per trace until the root
span lands, then the complete tree is judged —

* **error** — the root's terminal ``outcome`` isn't ``completed``, or the
  trace contains a failure marker span (``fleet.failover`` / ``fleet.
  rejected`` / ``fleet.expired``);
* **slow** — the root's duration is at least ``slow_ns``;
* **incident** — the trace's time extent overlaps an open/closed incident
  window reported by the flight recorder's ``incident_windows`` hook.

Kept traces are committed to the tracer's span log (so every reader works
unchanged); everything else is discarded
and only counted.  A hard :data:`SPAN_BUDGET` bounds total retained spans —
whole traces are dropped once it's spent, never truncated mid-tree — and
:data:`MAX_SPANS_PER_TRACE` bounds any single pathological trace while
buffered.

A trace is buffered as a :class:`~repro.obs.context.SpanLog`, so a serve's
device sub-spans wait as one :class:`~repro.obs.context.DeviceSpans`
reference that weighs its span count against both bounds: a discarded trace
never builds them, a kept one builds them where it is read.

Determinism: the sampler is a pure fold over the span stream.  No clocks
read, no RNG, no kernel events — the keep/discard decision and the committed
span order are byte-reproducible for a fixed workload.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs import names
from repro.obs.context import Span, SpanLog, Tracer

#: Marker spans whose presence flags a trace as an error trace.
_ERROR_MARKERS = frozenset(
    (
        names.SPAN_FLEET_FAILOVER,
        names.SPAN_FLEET_REJECTED,
        names.SPAN_FLEET_EXPIRED,
    )
)

REASON_ERROR = "error"
REASON_SLOW = "slow"
REASON_INCIDENT = "incident"

#: Total spans a sampler commits over a run; later kept traces are dropped whole.
SPAN_BUDGET = 100_000
#: Spans buffered per trace; the rest are counted in ``truncated_spans``.
MAX_SPANS_PER_TRACE = 512


class TailSampler:
    """Buffer complete trace trees; retain error/slow/incident traces."""

    def __init__(self, slow_ns: Optional[int] = None) -> None:
        self.slow_ns = slow_ns
        #: trace id -> buffered log entries, in record order.
        self._pending: Dict[int, SpanLog] = {}
        #: Hook returning ``[(start_ns, end_ns), ...]`` incident windows
        #: (installed by the flight recorder; ``end_ns`` may be ``None`` for
        #: still-open incidents).
        self.incident_windows: Optional[Callable[[], list]] = None
        #: Hook called as ``on_retain(trace_id, spans, reason, root)`` for
        #: every kept trace (the flight recorder attaches them to incidents).
        self.on_retain: Optional[Callable] = None
        # Accounting (surfaced as obs.tail.* gauges).
        self.retained_traces = 0
        self.discarded_traces = 0
        self.budget_dropped_traces = 0
        self.truncated_spans = 0
        self.retained_spans = 0
        #: reason -> retained-trace count.
        self.keep_reasons: Dict[str, int] = {}

    # -------------------------------------------------------------- pipeline
    def offer(self, tracer: Tracer, entry) -> None:
        """Buffer one recorded log entry; finalize its trace at the root."""
        buffered = self._pending.get(entry.trace_id)
        if buffered is None:
            buffered = self._pending[entry.trace_id] = SpanLog()
        room = MAX_SPANS_PER_TRACE - len(buffered)
        if entry.count <= room:
            buffered.append(entry)
        else:
            self.truncated_spans += entry.count - room
            if room > 0:
                buffered.append(entry.first(room))
        if entry.parent_id is None:
            # Every trace in the stack has exactly one root, recorded last
            # (fleet.request / client.request / a single order.* span).
            del self._pending[entry.trace_id]
            self._finalize(tracer, entry.trace_id, buffered, entry)

    def flush(self, tracer: Tracer) -> None:
        """Finalize rootless traces still buffered at end of run.

        A ``run(until_ns=...)`` cut-off can strand in-flight traces without
        their root; judge them on what was captured (deterministic order:
        first-buffered first).
        """
        pending = self._pending
        self._pending = {}
        for trace_id, buffered in pending.items():
            root = None
            for entry in buffered.entries:
                if entry.parent_id is None:
                    root = entry
                    break
            self._finalize(tracer, trace_id, buffered, root)

    # -------------------------------------------------------------- decision
    def _keep_reason(self, log: SpanLog, root: Optional[Span]) -> Optional[str]:
        # Judged on the plain spans alone: device sub-spans are never
        # markers and lie inside their ``card.service`` parent's interval.
        spans = [entry for entry in log.entries if entry.__class__ is Span]
        if root is not None and root.attrs.get("outcome", "completed") != "completed":
            return REASON_ERROR
        for span in spans:
            if span.name in _ERROR_MARKERS:
                return REASON_ERROR
        if (
            self.slow_ns is not None
            and root is not None
            and root.duration_ns >= self.slow_ns
        ):
            return REASON_SLOW
        if self.incident_windows is not None and spans:
            start = min(span.start_ns for span in spans)
            end = max(span.end_ns for span in spans)
            for window_start, window_end in self.incident_windows():
                if start <= (window_end if window_end is not None else end) and (
                    end >= window_start
                ):
                    return REASON_INCIDENT
        return None

    def _finalize(
        self,
        tracer: Tracer,
        trace_id: int,
        spans: SpanLog,
        root: Optional[Span],
    ) -> None:
        reason = self._keep_reason(spans, root)
        if reason is None:
            self.discarded_traces += 1
            return
        if self.retained_spans + len(spans) > SPAN_BUDGET:
            # Whole-trace budget drop — a truncated tree would lie to the
            # critical-path analyzer.
            self.budget_dropped_traces += 1
            return
        kept = tracer.commit(spans.entries)
        self.retained_spans += kept
        self.retained_traces += 1
        self.keep_reasons[reason] = self.keep_reasons.get(reason, 0) + 1
        if self.on_retain is not None:
            self.on_retain(trace_id, spans, reason, root)

    # --------------------------------------------------------------- queries
    def summary(self) -> Dict[str, object]:
        return {
            "retained_traces": self.retained_traces,
            "retained_spans": self.retained_spans,
            "discarded_traces": self.discarded_traces,
            "budget_dropped_traces": self.budget_dropped_traces,
            "truncated_spans": self.truncated_spans,
            "keep_reasons": dict(sorted(self.keep_reasons.items())),
        }


__all__ = ["TailSampler", "REASON_ERROR", "REASON_SLOW", "REASON_INCIDENT"]
