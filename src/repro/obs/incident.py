"""The incident flight recorder: evidence capture keyed to alert-fire.

When a burn-rate :class:`~repro.obs.slo.Alert` fires, the interesting data
is mostly in the *past* — the card kill that started the burn, the failovers
that followed, the heal orders already in flight.  The
:class:`FlightRecorder` therefore keeps small bounded rings of recent
symptom/control-plane spans and fault events at all times (a flight
recorder, not a camera you turn on after the crash), and on alert-fire
snapshots them into an :class:`Incident`:

* a correlated **timeline** — fault events (kills / upsets),
  ``order.*`` control-plane spans, symptom markers and the
  alert/resolve edges, merged in time order on the simulated clock;
* **metric deltas** — the registry snapshot at open vs. close, reduced to
  the numeric keys that moved;
* **retained traces** — summaries of the tail-sampled traces whose extent
  overlaps the incident window.

Incidents export as canonical JSON (:func:`incidents_json`), with a short
:func:`incidents_fingerprint` for BENCH files and cross-process tests.

Determinism: the recorder only folds over streams that are already
deterministic (spans, fault callbacks, registry state) using the simulated
clock — no wall clock, no RNG, no kernel events — so the exported JSON is
byte-identical across processes for a fixed workload.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs import names
from repro.obs.context import Span
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import Alert

#: Span names worth a timeline entry: control-plane orders + failure markers.
_TIMELINE_MARKERS = frozenset(
    (
        names.SPAN_FLEET_FAILOVER,
        names.SPAN_FLEET_REJECTED,
        names.SPAN_FLEET_EXPIRED,
    )
)
_ORDER_PREFIX = "order."

#: Always-on ring sizes: recent marker spans and fault events.
SPAN_RING = 512
FAULT_RING = 256
#: Incidents kept per run; later alerts are only counted.
MAX_INCIDENTS = 16
#: Per-incident bounds: timeline events and attached trace summaries.
MAX_TIMELINE_EVENTS = 256
MAX_TRACES_PER_INCIDENT = 32
#: How far before the alert an incident's evidence window opens.
LOOKBACK_NS = 2_000_000


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class Incident:
    """One opened (and eventually closed) incident with its evidence."""

    __slots__ = (
        "incident_id",
        "slo",
        "window",
        "opened_ns",
        "closed_ns",
        "burn_fast",
        "burn_slow",
        "timeline",
        "dropped_timeline_events",
        "metric_deltas",
        "traces",
        "_snapshot_at_open",
    )

    def __init__(self, incident_id: int, alert: Alert, opened_ns: int) -> None:
        self.incident_id = incident_id
        self.slo = alert.slo
        self.window = alert.window
        self.opened_ns = opened_ns
        self.closed_ns: Optional[int] = None
        self.burn_fast = alert.burn_fast
        self.burn_slow = alert.burn_slow
        #: Time-ordered ``{"t_ns": ..., "kind": ..., ...}`` event dicts.
        self.timeline: List[Dict[str, Any]] = []
        self.dropped_timeline_events = 0
        self.metric_deltas: Dict[str, float] = {}
        #: Summaries of tail-retained traces overlapping this incident.
        self.traces: List[Dict[str, Any]] = []
        self._snapshot_at_open: Dict[str, float] = {}

    @property
    def open(self) -> bool:
        return self.closed_ns is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "incident_id": self.incident_id,
            "slo": self.slo,
            "window": self.window,
            "opened_ns": self.opened_ns,
            "closed_ns": self.closed_ns,
            "burn_fast": round(self.burn_fast, 6),
            "burn_slow": round(self.burn_slow, 6),
            "timeline": self.timeline,
            "dropped_timeline_events": self.dropped_timeline_events,
            "metric_deltas": dict(sorted(self.metric_deltas.items())),
            "traces": self.traces,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"closed@{self.closed_ns}"
        return f"Incident(#{self.incident_id} {self.slo!r} @{self.opened_ns}, {state})"


class FlightRecorder:
    """Bounded always-on rings + per-alert incident capture."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._span_ring: deque = deque(maxlen=SPAN_RING)
        self._fault_ring: deque = deque(maxlen=FAULT_RING)
        self.incidents: List[Incident] = []
        self.overflowed_alerts = 0
        self._registry = registry
        self._opened = registry.counter(names.METRIC_INCIDENTS_OPENED)
        self._overflowed = registry.counter(names.METRIC_INCIDENTS_OVERFLOWED)
        recorder = self
        registry.gauge(
            names.GAUGE_INCIDENTS_OPEN,
            fn=lambda: sum(1 for incident in recorder.incidents if incident.open),
        )

    # ----------------------------------------------------------------- feeds
    def on_span(self, span: Span) -> None:
        """Tracer observer: sees *every* recorded span (pre tail decision)."""
        name = span.name
        if name not in _TIMELINE_MARKERS and not name.startswith(_ORDER_PREFIX):
            return
        self._span_ring.append(span)
        for incident in self.incidents:
            if incident.open:
                self._append_timeline(incident, self._span_event(span))

    def on_fault(self, kind: str, card: str, now_ns: int, **attrs: Any) -> None:
        """A fault-domain event: a card kill or an upset."""
        event = {"t_ns": now_ns, "kind": "fault", "fault": kind, "card": card}
        for key in sorted(attrs):
            event[key] = _json_safe(attrs[key])
        self._fault_ring.append(event)
        for incident in self.incidents:
            if incident.open:
                self._append_timeline(incident, dict(event))

    def on_alert(self, alert: Alert, now_ns: int) -> None:
        """SLO engine hook: open an incident and seed it from the rings."""
        if len(self.incidents) >= MAX_INCIDENTS:
            self.overflowed_alerts += 1
            self._overflowed.inc()
            return
        incident = Incident(len(self.incidents) + 1, alert, now_ns)
        horizon = now_ns - LOOKBACK_NS
        events: List[Dict[str, Any]] = []
        for fault in self._fault_ring:
            if fault["t_ns"] >= horizon:
                events.append(dict(fault))
        for span in self._span_ring:
            if span.end_ns >= horizon:
                events.append(self._span_event(span))
        events.sort(key=lambda event: (event["t_ns"], event["kind"]))
        events.append(
            {
                "t_ns": now_ns,
                "kind": "alert",
                "slo": alert.slo,
                "burn_fast": round(alert.burn_fast, 6),
                "burn_slow": round(alert.burn_slow, 6),
            }
        )
        for event in events:
            self._append_timeline(incident, event)
        incident._snapshot_at_open = _flatten_snapshot(self._registry.snapshot())
        self.incidents.append(incident)
        self._opened.inc()

    def on_resolved(self, alert: Alert, now_ns: int) -> None:
        """SLO engine hook: close the matching open incident."""
        for incident in self.incidents:
            if incident.open and incident.slo == alert.slo and incident.window == alert.window:
                self._close(incident, now_ns, "resolved")
                return

    def on_retained_trace(
        self, trace_id: int, spans: List[Span], reason: str, root: Optional[Span]
    ) -> None:
        """Tail-sampler hook: attach overlapping retained traces."""
        if not spans:
            return
        start = min(span.start_ns for span in spans)
        end = max(span.end_ns for span in spans)
        summary = {
            "trace_id": trace_id,
            "reason": reason,
            "spans": len(spans),
            "start_ns": start,
            "end_ns": end,
            "root": None if root is None else root.name,
            "outcome": None
            if root is None
            else _json_safe(root.attrs.get("outcome")),
        }
        for incident in self.incidents:
            if len(incident.traces) >= MAX_TRACES_PER_INCIDENT:
                continue
            window_start = incident.opened_ns - LOOKBACK_NS
            window_end = incident.closed_ns
            if end >= window_start and (window_end is None or start <= window_end):
                incident.traces.append(dict(summary))

    def flush(self, now_ns: int) -> None:
        """Close any still-open incidents (end of run)."""
        for incident in self.incidents:
            if incident.open:
                self._close(incident, now_ns, "run_end")

    # -------------------------------------------------------------- plumbing
    def incident_windows(self) -> List[tuple]:
        """``(opened_ns - lookback, closed_ns | None)`` windows for the
        tail sampler's incident-overlap retention check."""
        return [
            (incident.opened_ns - LOOKBACK_NS, incident.closed_ns)
            for incident in self.incidents
        ]

    def _span_event(self, span: Span) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "t_ns": span.end_ns,
            "kind": "span",
            "span": span.name,
            "trace_id": span.trace_id,
            "start_ns": span.start_ns,
        }
        for key in sorted(span.attrs):
            event[key] = _json_safe(span.attrs[key])
        return event

    def _append_timeline(self, incident: Incident, event: Dict[str, Any]) -> None:
        if len(incident.timeline) >= MAX_TIMELINE_EVENTS:
            incident.dropped_timeline_events += 1
            return
        incident.timeline.append(event)

    def _close(self, incident: Incident, now_ns: int, why: str) -> None:
        incident.closed_ns = now_ns
        self._append_timeline(incident, {"t_ns": now_ns, "kind": why})
        after = _flatten_snapshot(self._registry.snapshot())
        before = incident._snapshot_at_open
        deltas: Dict[str, float] = {}
        for key, value in after.items():
            delta = value - before.get(key, 0.0)
            if delta:
                deltas[key] = round(delta, 6)
        incident.metric_deltas = deltas
        incident._snapshot_at_open = {}


def _flatten_snapshot(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Reduce a registry snapshot to flat numeric ``name[.label]`` keys."""
    flat: Dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            for label, sub in value.items():
                if isinstance(sub, (int, float)):
                    flat[f"{name}.{label}"] = float(sub)
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


# ------------------------------------------------------------------- export
def incidents_json(recorder: FlightRecorder) -> str:
    """Canonical JSON for the incident list (byte-stable across processes)."""
    payload = {
        "incidents": [incident.to_dict() for incident in recorder.incidents],
        "overflowed_alerts": recorder.overflowed_alerts,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def incidents_fingerprint(recorder: FlightRecorder) -> str:
    """Short digest of the canonical incident JSON (BENCH / regression)."""
    return hashlib.sha256(incidents_json(recorder).encode()).hexdigest()[:16]


__all__ = [
    "FlightRecorder",
    "Incident",
    "incidents_fingerprint",
    "incidents_json",
]
