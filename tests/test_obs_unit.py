"""Unit tests for the observability layer: tracer, registry, exporters, names.

The determinism-critical behaviours (no RNG, integer-ns timestamps, seeded
sampling, capacity accounting, byte-stable exports) each get a direct test
here; the end-to-end properties over a live front door live in
``test_obs_properties`` and ``test_obs_determinism``.
"""

import json
import pickle

import pytest

from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    chrome_trace_json,
    metrics_snapshot_json,
    names,
    to_chrome_trace,
    trace_fingerprint,
)


class TestTracer:
    def test_record_returns_monotonic_span_ids(self):
        tracer = Tracer()
        first = tracer.record("a.b", 1, None, 0, 10)
        second = tracer.record("a.b", 1, first, 10, 20)
        assert second == first + 1
        assert tracer.spans[1].parent_id == first

    def test_preallocated_root_id_is_honoured(self):
        tracer = Tracer()
        root_id = tracer.next_span_id()
        child = tracer.record("c.d", 5, root_id, 0, 3)
        tracer.record("root.x", 5, None, 0, 9, span_id=root_id)
        assert child != root_id
        assert tracer.spans[-1].span_id == root_id

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().record("a.b", 1, None, 10, 5)

    def test_marker_is_zero_duration(self):
        tracer = Tracer()
        tracer.marker("m.k", 1, None, 42.0, verdict="shed")
        span = tracer.spans[0]
        assert span.duration_ns == 0
        assert span.attrs == {"verdict": "shed"}

    def test_capacity_drops_and_counts(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.record("a.b", 1, None, index, index + 1)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_new_trace_ids_are_negative_and_distinct(self):
        tracer = Tracer()
        ids = [tracer.new_trace_id() for _ in range(4)]
        assert all(trace_id < 0 for trace_id in ids)
        assert len(set(ids)) == 4

    def test_sampling_is_a_pure_function_of_seed_and_id(self):
        first = Tracer(sample_rate=0.3, seed=7)
        second = Tracer(sample_rate=0.3, seed=7)
        decisions = [first.sampled(trace_id) for trace_id in range(200)]
        assert decisions == [second.sampled(trace_id) for trace_id in range(200)]
        kept = sum(decisions)
        assert 0 < kept < 200  # the rate actually thins

    def test_sampling_edge_rates(self):
        assert Tracer(sample_rate=1.0).sampled(123)
        assert not Tracer(sample_rate=0.0).sampled(123)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestMetricsRegistry:
    def test_rejects_bad_names_and_duplicates(self):
        registry = MetricsRegistry()
        for bad in ("Upper.case", "with space", "dash-ed", ""):
            with pytest.raises(ValueError):
                registry.counter(bad)
        registry.counter("net.requests")
        with pytest.raises(ValueError):
            registry.gauge("net.requests")

    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("c.total")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("g.level")
        gauge.set(7)
        live = registry.gauge("g.live", fn=lambda: 11)
        with pytest.raises(RuntimeError):
            live.set(1)
        histogram = registry.histogram("h.latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["c.total"] == 5
        assert snapshot["g.level"] == 7
        assert snapshot["g.live"] == 11
        assert snapshot["h.latency"]["count"] == 4
        assert snapshot["h.latency"]["mean"] == pytest.approx(2.5)

    def test_labeled_counter_is_a_dropin_defaultdict(self):
        registry = MetricsRegistry()
        reasons = registry.labeled_counter("f.by_reason")
        reasons["timeout"] += 2
        reasons.inc("crash")
        assert dict(reasons) == {"timeout": 2, "crash": 1}
        assert sorted(reasons.items()) == [("crash", 1), ("timeout", 2)]
        assert registry.snapshot()["f.by_reason"] == {"crash": 1, "timeout": 2}

    def test_labeled_counter_pickles(self):
        reasons = MetricsRegistry().labeled_counter("f.by_reason", "why")
        reasons["x"] += 3
        clone = pickle.loads(pickle.dumps(reasons))
        assert dict(clone) == {"x": 3}
        assert (clone.name, clone.description) == ("f.by_reason", "why")
        clone["new"] += 1  # default factory survives the round-trip
        assert clone["new"] == 1

    def test_snapshot_json_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        text = metrics_snapshot_json(registry)
        assert text.index('"a.first"') < text.index('"z.last"')
        assert json.loads(text) == {"a.first": 2, "z.last": 1}


class TestExport:
    def _tracer(self):
        tracer = Tracer()
        root = tracer.next_span_id()
        tracer.record("net.attempt", 3, root, 5, 9, attempt=0)
        tracer.record("client.request", 3, None, 0, 10, span_id=root)
        tracer.record("fleet.request", -1, None, 2, 4)
        return tracer

    def test_chrome_trace_shape(self):
        events = to_chrome_trace(self._tracer().spans)["traceEvents"]
        assert [event["ph"] for event in events] == ["X"] * 3
        # Sorted by (trace_id, start, span_id): the fleet trace (-1) first.
        assert events[0]["tid"] == -1
        assert events[1]["name"] == "client.request"
        assert events[1]["ts"] == 0.0 and events[1]["dur"] == pytest.approx(0.01)
        assert events[2]["args"] == {"attempt": 0, "parent_id": 1, "span_id": 2}

    def test_chrome_json_is_compact_and_parseable(self):
        text = chrome_trace_json(self._tracer().spans)
        assert "\n" not in text and ": " not in text
        payload = json.loads(text)
        assert payload["displayTimeUnit"] == "ns"
        assert len(payload["traceEvents"]) == 3

    def test_fingerprint_reacts_to_any_field(self):
        base = trace_fingerprint(self._tracer().spans)
        assert base == trace_fingerprint(self._tracer().spans)
        shifted = self._tracer()
        shifted.spans[0].end_ns += 1
        assert trace_fingerprint(shifted.spans) != base

    def test_fingerprint_limit_bounds_work(self):
        tracer = self._tracer()
        limited = trace_fingerprint(tracer.spans, limit=1)
        assert limited != trace_fingerprint(tracer.spans)
        assert limited == trace_fingerprint(tracer.spans, limit=1)


class TestNamingLint:
    def test_every_canonical_name_matches_the_pattern_once(self):
        canonical = names.SPAN_NAMES + names.METRIC_NAMES
        assert len(canonical) == len(set(canonical))
        for name in canonical:
            assert names.NAME_RE.match(name), name

    def test_slo_and_incident_vocabulary_is_canonical_and_collision_free(self):
        # The SLO engine, flight recorder and tail sampler publish under
        # their own prefixes; all of them must be swept into METRIC_NAMES
        # (the globals sweep catches new constants automatically), match
        # the pattern, and never collide with the span namespace.
        metric_names = set(names.METRIC_NAMES)
        for expected in (
            names.METRIC_SLO_ALERTS,
            names.METRIC_SLO_ALERTS_BY_SLO,
            names.METRIC_SLO_ALERTS_RESOLVED,
            names.GAUGE_SLO_WORST_BURN,
            names.METRIC_INCIDENTS_OPENED,
            names.METRIC_INCIDENTS_OVERFLOWED,
            names.GAUGE_INCIDENTS_OPEN,
            names.GAUGE_TAIL_RETAINED,
            names.GAUGE_TAIL_DISCARDED,
            names.GAUGE_TAIL_BUDGET_DROPPED,
        ):
            assert expected in metric_names
            assert names.NAME_RE.match(expected), expected
        assert any(name.startswith("slo.") for name in metric_names)
        assert any(name.startswith("incident.") for name in metric_names)
        assert not metric_names & set(names.SPAN_NAMES)

    def test_device_span_names_are_sanitised_into_the_namespace(self):
        name = names.device_span_name("config-module", "reconfigure")
        assert name == "card.config_module.reconfigure"
        assert names.NAME_RE.match(name)
        assert names.device_span_name("FPGA", "execute") == "card.fpga.execute"

    def test_instrumented_stack_registers_only_canonical_metric_names(self):
        from repro.core.builder import build_fleet, build_frontdoor
        from repro.core.config import SMALL_CONFIG
        from repro.functions.bank import build_small_bank

        observability = Observability()
        fleet = build_fleet(
            cards=1,
            config=SMALL_CONFIG,
            bank=build_small_bank(),
            observability=observability,
        )
        build_frontdoor(fleet, seed=3, gateways=1)
        registered = set(observability.registry.names())
        assert registered <= set(names.METRIC_NAMES)
        # Snapshots only ever contain registered (hence canonical) names.
        assert set(observability.snapshot()) == registered
