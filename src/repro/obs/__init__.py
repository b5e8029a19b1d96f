"""``repro.obs`` — deterministic observability for the whole stack.

One :class:`Observability` object threads three things through every tier
(client populations → links → gateways → transport → fleet → cards):

* a :class:`~repro.obs.context.Tracer` collecting per-request span trees
  (and per-control-plane-order traces);
* a :class:`~repro.obs.registry.MetricsRegistry` that owns every counter
  the layers used to hand-roll, under the canonical names in
  :mod:`repro.obs.names`;
* exporters (:mod:`repro.obs.export`) emitting a trace fingerprint and
  flat metrics snapshots, byte-identical across processes for a fixed
  seed.

Determinism contract: with no ``Observability`` installed — the default
everywhere — instrumentation sites reduce to one ``is None`` check, no RNG is
consumed, no kernel event is spawned, and every schedule digest and BENCH
fingerprint is byte-identical to the pre-observability repo.  With one
installed, tracing still spawns no kernel work and consumes no randomness, so
even *traced* runs keep their schedule digests — the property the ``obs``
section of ``benchmarks/fingerprints.py`` asserts.

Usage::

    from repro.core.builder import build_fleet, build_frontdoor
    from repro.obs import Observability

    obs = Observability()
    fleet = build_fleet(cards=2, observability=obs)
    ...
    trace_fingerprint(obs.spans)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import names
from repro.obs.context import Span, Tracer
from repro.obs.export import metrics_snapshot_json, trace_fingerprint
from repro.obs.incident import (
    FlightRecorder,
    Incident,
    incidents_fingerprint,
    incidents_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    LabeledCounter,
    MetricsRegistry,
)
from repro.obs.slo import Alert, SloEngine, SloSpec
from repro.obs.tail import TailSampler


class Observability:
    """The one knob: tracer + registry + policy, handed to the builders.

    Everything is wired here, once: *slos* (fleet- or net-source
    :class:`SloSpec` objectives) build the SLO engine and the incident
    flight recorder, and *tail* installs the tail sampler.  The engine feeds
    the recorder, the tracer feeds the recorder and the sampler, and the
    sampler's retained traces feed the recorder's open incidents.
    """

    def __init__(
        self,
        slos: Optional[Sequence[SloSpec]] = None,
        tail: Optional[TailSampler] = None,
    ) -> None:
        self.tracer = tracer = Tracer()
        self.registry = registry = MetricsRegistry()
        registry.gauge(names.GAUGE_SPANS_RECORDED, fn=lambda: len(tracer.spans))
        registry.gauge(names.GAUGE_SPANS_DROPPED, fn=lambda: tracer.dropped)
        self.slo_engine: Optional[SloEngine] = None
        self.recorder: Optional[FlightRecorder] = None
        if slos:
            self.slo_engine = engine = SloEngine(slos, registry=registry)
            self.recorder = recorder = FlightRecorder(registry=registry)
            engine.on_alert = recorder.on_alert
            engine.on_resolve = recorder.on_resolved
            tracer._observer = recorder.on_span
        self.tail = tail
        if tail is not None:
            tracer.tail_sampler = tail
            registry.gauge(names.GAUGE_TAIL_RETAINED, fn=lambda: tail.retained_traces)
            registry.gauge(names.GAUGE_TAIL_DISCARDED, fn=lambda: tail.discarded_traces)
            registry.gauge(
                names.GAUGE_TAIL_BUDGET_DROPPED, fn=lambda: tail.budget_dropped_traces
            )
            if self.recorder is not None:
                tail.incident_windows = self.recorder.incident_windows
                tail.on_retain = self.recorder.on_retained_trace

    # -------------------------------------------------------------- teardown
    def finish(self, now_ns: int) -> None:
        """End-of-run settlement: flush the tail sampler's rootless traces
        and close still-open incidents.  No-op without SLOs/tail, and safe
        to call more than once."""
        if self.tail is not None:
            self.tail.flush(self.tracer)
        if self.recorder is not None:
            self.recorder.flush(now_ns)

    # --------------------------------------------------------------- queries
    @property
    def spans(self):
        """The tracer's :class:`~repro.obs.context.SpanLog`: reads as the
        list of recorded spans; ``len`` is a running count."""
        return self.tracer.spans

    @property
    def alerts(self):
        return self.slo_engine.alerts if self.slo_engine is not None else []

    @property
    def incidents(self):
        return self.recorder.incidents if self.recorder is not None else []


__all__ = [
    "Alert",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Incident",
    "LabeledCounter",
    "MetricsRegistry",
    "Observability",
    "SloEngine",
    "SloSpec",
    "Span",
    "TailSampler",
    "Tracer",
    "incidents_fingerprint",
    "incidents_json",
    "metrics_snapshot_json",
    "names",
    "trace_fingerprint",
]
