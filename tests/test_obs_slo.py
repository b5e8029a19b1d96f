"""Unit tests for the SLO engine, tail sampler and incident flight recorder.

Everything here drives the new :mod:`repro.obs.slo` / :mod:`repro.obs.tail`
/ :mod:`repro.obs.incident` machinery with synthetic feeds — no simulator —
plus one in-process integration that replays the E10 kill drill and checks
the whole chain (record stream → burn rate → alert → incident → retained
traces) while the schedule digest stays byte-identical.
"""

import json

import pytest

from repro.obs import (
    Alert,
    FlightRecorder,
    Observability,
    SloEngine,
    SloSpec,
    TailSampler,
    incidents_fingerprint,
    incidents_json,
)
from repro.obs import incident as incident_module
from repro.obs import tail as tail_module
from repro.obs.context import Span, Tracer
from repro.obs.registry import MetricsRegistry


def availability_spec(**overrides):
    base = dict(
        objective=0.9,
        fast_ns=100.0,
        slow_ns=1_000.0,
        burn_threshold=2.0,
        min_events=4,
    )
    base.update(overrides)
    return SloSpec.availability("fleet.availability", **base)


def engine_for(*specs):
    return SloEngine(specs, MetricsRegistry())


class TestSloSpecValidation:
    def test_shorthands_build_valid_specs(self):
        spec = SloSpec.availability("fleet.availability", objective=0.99)
        assert spec.kind == "availability"
        assert spec.error_budget == pytest.approx(0.01)
        assert (spec.fast_ns, spec.slow_ns, spec.burn_threshold) == (200_000, 1_000_000, 4.0)
        latency = SloSpec.latency("fleet.latency.p95", threshold_ns=1_000.0)
        assert latency.threshold_ns == 1_000.0
        assert latency.source == "fleet"

    def test_name_must_be_canonical(self):
        with pytest.raises(ValueError, match="naming convention"):
            SloSpec.availability("Fleet Availability!")

    def test_objective_must_leave_budget(self):
        for objective in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="objective"):
                SloSpec.availability("fleet.availability", objective=objective)

    def test_latency_requires_threshold_and_others_reject_it(self):
        with pytest.raises(ValueError, match="threshold_ns"):
            SloSpec("fleet.latency.p95", "latency", 0.95, "fleet", 100.0, 1_000.0, 2.0, 10)
        with pytest.raises(ValueError, match="threshold_ns"):
            SloSpec("fleet.availability", "availability", 0.99, "fleet", 100.0, 1_000.0, 2.0, 10,
                    threshold_ns=5.0)

    def test_burn_window_fast_must_be_shorter_than_slow(self):
        with pytest.raises(ValueError, match="shorter"):
            availability_spec(fast_ns=1_000.0, slow_ns=1_000.0)
        with pytest.raises(ValueError, match="positive"):
            availability_spec(fast_ns=-1.0)
        with pytest.raises(ValueError, match="threshold"):
            availability_spec(burn_threshold=0.0)

    def test_engine_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            engine_for(availability_spec(), availability_spec())


    def test_fractional_windows_become_a_whole_nanosecond_grain(self):
        state = engine_for(availability_spec(fast_ns=500_000.5, slow_ns=2_000_000.0))._fleet_states[0]
        assert (state.fast_ns, state.slow_ns) == (500_000, 2_000_000)
        series = state.series
        assert (series.window_ns, series.max_windows) == (125_000, 24)
        assert type(series.window_ns) is int and type(series.max_windows) is int


class TestBurnRateAlerting:
    def test_all_good_never_fires(self):
        engine = engine_for(availability_spec())
        for step in range(50):
            engine.on_fleet_completion(step * 10.0, 100.0)
        assert engine.alerts == []
        assert engine._fleet_states[0].active is None

    def test_fires_when_both_windows_burn_and_resolves_with_recovery(self):
        engine = engine_for(availability_spec())
        # Burn hard: every event bad -> burn = 1/0.1 = 10x in both windows.
        for step in range(10):
            engine.on_fleet_bad(step * 10.0)
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.slo == "fleet.availability"
        assert alert.resolved_ns is None
        assert alert.burn_fast >= 2.0 and alert.burn_slow >= 2.0
        # Recovery: good events push the fast burn back under threshold
        # while the slow window still remembers the bad spell (hysteresis
        # is on the fast window only).
        for step in range(60):
            engine.on_fleet_completion(200.0 + step * 10.0, 100.0)
        assert alert.resolved_ns is not None
        assert alert.resolved_ns is not None
        assert all(alert.resolved_ns is not None for alert in engine.alerts)
        # No re-fire after resolution while healthy.
        assert len(engine.alerts) == 1

    def test_min_events_gates_the_fast_window(self):
        engine = engine_for(availability_spec(min_events=8))
        for step in range(5):  # enough burn, too few events
            engine.on_fleet_bad(step * 10.0)
        assert engine.alerts == []
        for step in range(5, 10):
            engine.on_fleet_bad(step * 10.0)
        assert len(engine.alerts) == 1

    def test_slow_window_vetoes_a_fast_blip(self):
        # A long healthy history keeps the slow burn low; a short bad burst
        # alone must not page.
        engine = engine_for(availability_spec(min_events=2))
        for step in range(90):
            engine.on_fleet_completion(step * 10.0, 100.0)
        for step in range(4):
            engine.on_fleet_bad(900.0 + step * 10.0)
        series = engine._fleet_states[0].series
        fast_count, fast_bad = series.trailing(930.0, 100.0)
        slow_count, slow_bad = series.trailing(930.0, 1_000.0)
        assert fast_bad / fast_count > slow_bad / slow_count
        assert engine.alerts == []

    def test_latency_judges_completions(self):
        engine = engine_for(
            SloSpec.latency(
                "fleet.latency.p95",
                threshold_ns=500.0,
                objective=0.5,
                fast_ns=100.0,
                slow_ns=1_000.0,
                burn_threshold=1.5,
                min_events=4,
            ),
        )
        for step in range(10):  # slow completions
            engine.on_fleet_completion(step * 10.0, 900.0)
        assert [alert.slo for alert in engine.alerts] == ["fleet.latency.p95"]
        # Rejections are invisible to latency SLOs.
        before = len(engine.alerts)
        engine.on_fleet_bad(200.0)
        assert len(engine.alerts) == before

    def test_net_source_feeds_only_net_specs(self):
        engine = engine_for(
            availability_spec(),
            SloSpec.availability(
                "net.availability",
                objective=0.9,
                source="net",
                fast_ns=100.0,
                slow_ns=1_000.0,
                burn_threshold=2.0,
                min_events=4,
            ),
        )
        for step in range(10):
            engine.on_net_bad(step * 10.0)
        assert [alert.slo for alert in engine.alerts] == ["net.availability"]

    def test_registry_counters_track_fire_and_resolve(self):
        registry = MetricsRegistry()
        engine = SloEngine([availability_spec()], registry)
        for step in range(10):
            engine.on_fleet_bad(step * 10.0)
        for step in range(60):
            engine.on_fleet_completion(200.0 + step * 10.0, 100.0)
        snap = registry.snapshot()
        assert snap["slo.alerts"] == 1
        assert snap["slo.alerts.by_slo"] == {"fleet.availability": 1}
        assert snap["slo.alerts.resolved"] == 1
        assert snap["slo.burn.worst"] >= 2.0


def make_trace(tracer, trace_id, names_and_times, root_attrs=None):
    """Record a synthetic trace: children first, root (parent_id=None) last."""
    spans = []
    for index, (name, start, end) in enumerate(names_and_times[:-1]):
        spans.append(
            Span(name, trace_id, index + 2, 1, start, end, {})
        )
    name, start, end = names_and_times[-1]
    root = Span(name, trace_id, 1, None, start, end, dict(root_attrs or {}))
    spans.append(root)
    for span in spans:
        tracer.tail_sampler.offer(tracer, span)
    return root


class TestTailSampler:
    def _tracer(self, **kwargs):
        tracer = Tracer()
        tracer.tail_sampler = TailSampler(**kwargs)
        return tracer

    def test_boring_traces_are_discarded_interesting_kept(self):
        tracer = self._tracer(slow_ns=500.0)
        make_trace(tracer, 1, [("fleet.queue", 0, 10), ("fleet.request", 0, 100)],
                   root_attrs={"outcome": "completed"})
        make_trace(tracer, 2, [("fleet.queue", 0, 10), ("fleet.request", 0, 900)],
                   root_attrs={"outcome": "completed"})
        make_trace(tracer, 3, [("fleet.request", 0, 50)],
                   root_attrs={"outcome": "rejected"})
        sampler = tracer.tail_sampler
        assert sampler.retained_traces == 2
        assert sampler.discarded_traces == 1
        assert sampler.keep_reasons == {"error": 1, "slow": 1}
        # Kept traces were committed whole, in finalize order.
        assert [span.trace_id for span in tracer.spans] == [2, 2, 3]

    def test_error_marker_span_flags_the_trace(self):
        tracer = self._tracer()
        make_trace(tracer, 7, [("fleet.failover", 0, 5), ("fleet.request", 0, 50)],
                   root_attrs={"outcome": "completed"})
        assert tracer.tail_sampler.keep_reasons == {"error": 1}

    def test_incident_overlap_retention(self):
        tracer = self._tracer()
        tracer.tail_sampler.incident_windows = lambda: [(40.0, 60.0)]
        retained = []
        tracer.tail_sampler.on_retain = (
            lambda trace_id, spans, reason, root: retained.append((trace_id, reason))
        )
        make_trace(tracer, 1, [("fleet.request", 50, 55)],
                   root_attrs={"outcome": "completed"})  # inside the window
        make_trace(tracer, 2, [("fleet.request", 100, 110)],
                   root_attrs={"outcome": "completed"})  # outside
        assert retained == [(1, "incident")]
        assert tracer.tail_sampler.discarded_traces == 1

    def test_span_budget_drops_whole_traces(self, monkeypatch):
        monkeypatch.setattr(tail_module, "SPAN_BUDGET", 3)
        tracer = self._tracer()
        make_trace(tracer, 1, [("fleet.queue", 0, 1), ("fleet.request", 0, 10)],
                   root_attrs={"outcome": "rejected"})
        make_trace(tracer, 2, [("fleet.queue", 0, 1), ("fleet.request", 0, 10)],
                   root_attrs={"outcome": "rejected"})
        sampler = tracer.tail_sampler
        assert sampler.retained_traces == 1
        assert sampler.budget_dropped_traces == 1
        # Never a partial tree: both spans of trace 1, none of trace 2.
        assert [span.trace_id for span in tracer.spans] == [1, 1]

    def test_max_spans_per_trace_truncates_while_buffering(self, monkeypatch):
        monkeypatch.setattr(tail_module, "MAX_SPANS_PER_TRACE", 2)
        tracer = self._tracer()
        children = [("fleet.queue", 0, i + 1) for i in range(4)]
        make_trace(tracer, 1, children + [("fleet.request", 0, 10)],
                   root_attrs={"outcome": "rejected"})
        sampler = tracer.tail_sampler
        assert sampler.truncated_spans == 3  # 3 of 5 spans over the cap
        assert len(tracer.spans) == 2

    def test_flush_judges_rootless_traces(self):
        tracer = self._tracer()
        sampler = tracer.tail_sampler
        # A failover marker lands but the run is cut before the root.
        sampler.offer(tracer, Span("fleet.failover", 9, 2, 1, 0, 5, {}))
        assert len(sampler._pending) == 1
        sampler.flush(tracer)
        assert not sampler._pending
        assert sampler.retained_traces == 1
        assert sampler.keep_reasons == {"error": 1}

    def test_summary_is_sorted_and_complete(self):
        tracer = self._tracer(slow_ns=500.0)
        make_trace(tracer, 1, [("fleet.request", 0, 900)],
                   root_attrs={"outcome": "completed"})
        summary = tracer.tail_sampler.summary()
        assert summary == {
            "retained_traces": 1,
            "retained_spans": 1,
            "discarded_traces": 0,
            "budget_dropped_traces": 0,
            "truncated_spans": 0,
            "keep_reasons": {"slow": 1},
        }


def fire_alert(recorder, now_ns=1_000, slo="fleet.availability"):
    alert = Alert(slo, "burn", now_ns, 5.0, 3.0)
    recorder.on_alert(alert, now_ns)
    return alert


def recorder_with_lookback(monkeypatch, lookback_ns):
    monkeypatch.setattr(incident_module, "LOOKBACK_NS", lookback_ns)
    return FlightRecorder(MetricsRegistry())


class TestFlightRecorder:
    def test_alert_seeds_timeline_from_the_rings(self):
        recorder = FlightRecorder(MetricsRegistry())
        recorder.on_fault("kill", "card0", 500.0)
        recorder.on_span(Span("order.heal", -1, 1, None, 600, 700, {"card": "card0"}))
        recorder.on_span(Span("fleet.queue", -1, 2, 1, 0, 10, {}))  # not a marker
        recorder.on_fault("upset", "card1", 900.0, frame="f(0,1)", effective=True)
        fire_alert(recorder)
        assert len(recorder.incidents) == 1
        timeline = recorder.incidents[0].timeline
        kinds = [(event["t_ns"], event["kind"]) for event in timeline]
        assert kinds == [
            (500, "fault"),
            (700, "span"),
            (900, "fault"),
            (1_000, "alert"),
        ]
        assert timeline[2]["frame"] == "f(0,1)"
        assert timeline[2]["effective"] is True

    def test_lookback_excludes_stale_ring_entries(self, monkeypatch):
        recorder = recorder_with_lookback(monkeypatch, 100.0)
        recorder.on_fault("kill", "card0", 10.0)  # far before the horizon
        fire_alert(recorder, now_ns=1_000)
        kinds = [event["kind"] for event in recorder.incidents[0].timeline]
        assert kinds == ["alert"]

    def test_open_incident_receives_live_events_and_close_stops_them(self, monkeypatch):
        recorder = recorder_with_lookback(monkeypatch, 100.0)
        alert = fire_alert(recorder, now_ns=1_000)
        recorder.on_fault("upset", "card1", 1_100.0, frame="f(0,1)", effective=True)
        recorder.on_resolved(alert, 1_200)
        recorder.on_fault("kill", "card0", 1_300.0)  # after close: ring only
        incident = recorder.incidents[0]
        assert not incident.open
        kinds = [event["kind"] for event in incident.timeline]
        assert kinds == ["alert", "fault", "resolved"]
        assert incident.closed_ns == 1_200

    def test_metric_deltas_capture_what_moved(self):
        registry = MetricsRegistry()
        counter = registry.counter("fleet.failovers")
        steady = registry.counter("fleet.heal.orders")
        steady.inc()
        recorder = FlightRecorder(registry)
        alert = fire_alert(recorder)
        counter.inc()
        counter.inc()
        recorder.on_resolved(alert, 2_000)
        deltas = recorder.incidents[0].metric_deltas
        assert deltas["fleet.failovers"] == 2
        assert "fleet.heal.orders" not in deltas  # did not move
        # incident.opened moved (the recorder's own counter) — that's fine,
        # it is numeric registry state like any other.
        assert registry.snapshot()["incident.opened"] == 1

    def test_max_incidents_overflow_is_counted_not_grown(self, monkeypatch):
        monkeypatch.setattr(incident_module, "MAX_INCIDENTS", 1)
        recorder = FlightRecorder(MetricsRegistry())
        fire_alert(recorder, slo="fleet.availability")
        fire_alert(recorder, now_ns=2_000, slo="fleet.latency.p95")
        assert len(recorder.incidents) == 1
        assert recorder.overflowed_alerts == 1

    def test_retained_trace_attaches_only_on_overlap(self, monkeypatch):
        recorder = recorder_with_lookback(monkeypatch, 100.0)
        alert = fire_alert(recorder, now_ns=1_000)
        recorder.on_resolved(alert, 2_000)
        span_in = Span("fleet.request", 5, 1, None, 950, 1_500,
                       {"outcome": "rejected"})
        recorder.on_retained_trace(5, [span_in], "error", span_in)
        span_out = Span("fleet.request", 6, 1, None, 3_000, 3_100,
                        {"outcome": "rejected"})
        recorder.on_retained_trace(6, [span_out], "error", span_out)
        traces = recorder.incidents[0].traces
        assert [trace["trace_id"] for trace in traces] == [5]
        assert traces[0]["reason"] == "error"
        assert traces[0]["outcome"] == "rejected"

    def test_flush_closes_open_incidents_with_run_end(self):
        recorder = FlightRecorder(MetricsRegistry())
        fire_alert(recorder)
        recorder.flush(9_000.0)
        incident = recorder.incidents[0]
        assert incident.closed_ns == 9_000
        assert incident.timeline[-1]["kind"] == "run_end"
        assert recorder.incident_windows() == [
            (1_000 - incident_module.LOOKBACK_NS, 9_000)
        ]

    def test_incident_json_is_canonical_and_fingerprinted(self, monkeypatch):
        recorder = recorder_with_lookback(monkeypatch, 100.0)
        recorder.on_fault("kill", "card0", 950.0)
        alert = fire_alert(recorder)
        recorder.on_resolved(alert, 2_000)
        text = incidents_json(recorder)
        payload = json.loads(text)
        assert payload["overflowed_alerts"] == 0
        assert payload["incidents"][0]["slo"] == "fleet.availability"
        assert text == incidents_json(recorder)  # stable
        assert len(incidents_fingerprint(recorder)) == 16


class TestObservabilityWiring:
    def test_constructor_wires_engine_recorder_and_tail(self):
        obs = Observability(slos=[availability_spec()], tail=TailSampler())
        assert obs.slo_engine.on_alert == obs.recorder.on_alert
        assert obs.slo_engine.on_resolve == obs.recorder.on_resolved
        assert obs.tracer._observer == obs.recorder.on_span
        assert obs.tracer.tail_sampler is obs.tail
        assert obs.tail.incident_windows == obs.recorder.incident_windows
        assert obs.tail.on_retain == obs.recorder.on_retained_trace


class TestKillDrillIntegration:
    """In-process E10 replay: the whole chain, plus digest neutrality."""

    def _run(self, slos):
        from repro.core.builder import build_fleet
        from repro.core.config import CoprocessorConfig
        from repro.faults import FaultSpec
        from repro.functions.bank import build_default_bank
        from repro.workloads import default_tenant_mix, multi_tenant_trace

        bank = build_default_bank()
        functions = ["sha1", "crc32", "fir16", "strmatch",
                     "bitonic64", "parity32", "adder8", "popcount8"]
        subset = bank.subset(functions)
        trace = multi_tenant_trace(
            subset,
            default_tenant_mix(subset, tenants=4, skew=1.2),
            length=100,
            mean_interarrival_ns=20_000.0,
            seed=4,
        )
        spec = FaultSpec(
            process="targeted",
            upset_rate_per_s=2_000.0,
            card_kill_times_ns=((trace.duration_ns * 0.35, 0),),
            seed=4,
        )
        obs = None
        if slos is not None:
            obs = Observability(slos=slos, tail=TailSampler(slow_ns=300_000.0))
        fleet = build_fleet(
            cards=2,
            config=CoprocessorConfig(
                fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=4
            ),
            bank=bank,
            functions=functions,
            policy="affinity",
            queue_depth=4,
            fault_tolerance=True,
            scrub_period_ns=100_000.0,
            fault_spec=spec,
            observability=obs,
        )
        stats = fleet.run(trace)
        return fleet, stats, obs

    def test_kill_drill_fires_availability_and_records_the_story(self):
        slos = [
            SloSpec.availability(
                "fleet.availability",
                objective=0.99,
                fast_ns=200_000.0,
                slow_ns=1_000_000.0,
                burn_threshold=5.0,
                min_events=5,
            ),
        ]
        _, bare_stats, _ = self._run(None)
        fleet, stats, obs = self._run(slos)
        # Digest neutrality: SLOs + tail sampling + flight recorder change
        # nothing about the schedule.
        assert stats.schedule_digest() == bare_stats.schedule_digest()
        # The availability SLO fired and resolved on the simulated clock.
        assert [(a.slo, a.fired_ns, a.resolved_ns) for a in obs.alerts] == [
            ("fleet.availability", 163_619, 2_051_383)
        ]
        # The whole incident (timeline, traces, metric deltas) and the tail
        # sampler's verdicts, pinned exactly.
        assert incidents_fingerprint(obs.recorder) == "fe8f01a78c81b980"
        assert obs.tail.summary() == {
            "retained_traces": 106,
            "retained_spans": 689,
            "discarded_traces": 3,
            "budget_dropped_traces": 0,
            "truncated_spans": 0,
            "keep_reasons": {"error": 73, "incident": 23, "slow": 10},
        }
        # The incident holds the kill, the heal order and failed traces.
        incident = obs.incidents[0]
        assert any(
            e["kind"] == "fault" and e["fault"] == "kill" for e in incident.timeline
        )
        assert any(
            e["kind"] == "span" and e["span"] == "order.heal"
            for e in incident.timeline
        )
        assert any(t["reason"] == "error" for t in incident.traces)
        # Registry surfaced the whole chain.
        snap = obs.registry.snapshot()
        assert snap["slo.alerts"] == 1
        assert snap["incident.opened"] == 1
        assert snap["obs.tail.retained_traces"] == obs.tail.retained_traces > 0
