"""The lazy device bridge: one ``DeviceSpans`` reference per traced serve.

A traced serve's ``card.*`` sub-spans are a pure function of the card's
recorded device events and the instant the serve started, so the tracer's
log holds one :class:`~repro.obs.context.DeviceSpans` per serve and builds
the spans where they are read.  Four contracts are pinned here:

* **differential** — against the eager bridge it replaced
  (``tests/oracles/eager_bridge.py``: events built at replay, one
  ``Tracer.record`` per event at settle), every span, every id, both
  ``dropped`` counters, the tail sampler's accounting, the incident JSON and
  the schedule digest are equal, whatever bound bites where;
* **nothing is built unread** — a replayed run constructs no ``TraceEvent``
  and no ``card.*`` ``Span`` until the log is read;
* **exact work** — retained log entries are derived, not measured:
  seven plain spans and one reference per request;
* **a reference outlives its source** — it holds values only.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eager_bridge
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability, SloSpec, TailSampler, incidents_json
from repro.obs import tail as tail_module
from repro.obs.context import DeviceSpans, Span
from repro.sim.trace import TraceEvent
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

REQUESTS = 120


def span_tuple(span):
    return (
        span.name, span.trace_id, span.span_id, span.parent_id,
        span.start_ns, span.end_ns, sorted(span.attrs.items()),
    )


def slo_specs(source):
    """A latency objective at about the median, so the small cells below
    open incidents (and attach retained traces to them)."""
    windows = {"fast_ns": 300_000, "slow_ns": 1_000_000, "burn_threshold": 1.5, "min_events": 4}
    threshold_ns = {"fleet": 3_000, "net": 48_000}[source]
    return [
        SloSpec.availability(f"{source}.availability", objective=0.97, source=source, **windows),
        SloSpec.latency(
            f"{source}.latency", threshold_ns=threshold_ns, objective=0.9, source=source, **windows
        ),
    ]


def build_cell(
    bank,
    seed,
    frontdoor=True,
    eager=False,
    capacity=1_000_000,
    device_capacity=None,
    tail=None,
    slos=False,
    kill=False,
    lossless=False,
    requests=REQUESTS,
):
    """One traced cell, not yet run: ``(run, fleet, observability, trace)``.

    *tail* is ``{"slow_ns", "max_spans_per_trace", "span_budget"}``; the two
    bounds are module constants, which :func:`run_cell` patches for the run.
    """
    observability = Observability(
        slos=slo_specs("net" if frontdoor else "fleet") if slos else None,
        tail=TailSampler(tail["slow_ns"]) if tail is not None else None,
    )
    observability.tracer.capacity = capacity
    tenants = default_tenant_mix(bank, tenants=3, skew=1.2)
    trace = multi_tenant_trace(
        bank, tenants, length=requests, mean_interarrival_ns=40_000.0, seed=seed
    )
    fleet = build_fleet(
        cards=2,
        config=SMALL_CONFIG.with_overrides(seed=seed),
        bank=bank,
        queue_depth=8,
        observability=observability,
        fault_tolerance=kill,
        scrub_period_ns=100_000.0 if kill else None,
        fault_spec=(
            FaultSpec(card_kill_times_ns=((1_500_000.0, 0),), seed=seed) if kill else None
        ),
    )
    for card in fleet.cards:
        card.driver.coprocessor.trace.capacity = device_capacity
    if eager:
        eager_bridge.install(fleet)
    if not frontdoor:
        return (lambda: fleet.run(trace)), fleet, observability, trace
    door = build_frontdoor(
        fleet,
        seed=seed,
        gateways=2,
        uplink=LinkSpec() if lossless else LinkSpec(latency_ns=20_000.0, loss=0.03, jitter_ns=4_000.0),
        transport=TransportConfig(),
        admission=None if lossless else AdmissionConfig(rate_per_s=20_000.0, burst=6.0),
        deadline_ns=30_000_000.0,
    )
    door.add_population(OpenLoopPopulation(trace))
    return door.run, fleet, observability, trace


def observed(fleet, observability):
    """Everything the bridge may not change, read after the run."""
    tracer = observability.tracer
    recorders = [card.driver.coprocessor.trace for card in fleet.cards]
    return {
        "spans": [span_tuple(span) for span in observability.spans],
        "count": len(observability.spans),
        "dropped": tracer.dropped,
        "next_span": tracer._next_span,
        "device_dropped": [recorder.dropped for recorder in recorders],
        "device_left": [len(recorder.events) for recorder in recorders],
        "tail": observability.tail.summary() if observability.tail is not None else None,
        "incidents": (
            incidents_json(observability.recorder)
            if observability.recorder is not None
            else None
        ),
        "digest": fleet.stats.schedule_digest(),
        "replays": sum(card.memo.replays for card in fleet.cards),
    }


def probe_spans(log):
    """Gateway health-probe ticks: the one span kind not owed to a request."""
    return sum(entry.__class__ is Span and entry.name == "order.probe" for entry in log.entries)


def run_cell(bank, seed, **cell):
    tail = cell.get("tail") or {}
    bounds = {
        "MAX_SPANS_PER_TRACE": tail.get("max_spans_per_trace", tail_module.MAX_SPANS_PER_TRACE),
        "SPAN_BUDGET": tail.get("span_budget", tail_module.SPAN_BUDGET),
    }
    with mock.patch.multiple(tail_module, **bounds):
        run, fleet, observability, _ = build_cell(bank, seed, **cell)
        run()
    return fleet, observability


# ---------------------------------------------------------------- differential
TAILS = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "slow_ns": st.sampled_from([0, 150_000, 400_000]),
            "max_spans_per_trace": st.integers(min_value=3, max_value=40),
            "span_budget": st.integers(min_value=30, max_value=2_000),
        }
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    frontdoor=st.booleans(),
    capacity=st.one_of(st.just(1_000_000), st.integers(min_value=1, max_value=900)),
    device_capacity=st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
    tail=TAILS,
    slos=st.booleans(),
    kill=st.booleans(),
)
def test_lazy_bridge_equals_the_eager_bridge(small_bank, seed, kill, **cell):
    cell["kill"] = kill
    lazy = observed(*run_cell(small_bank, seed, eager=False, **cell))
    eager_fleet, eager_obs = run_cell(small_bank, seed, eager=True, **cell)
    eager = observed(eager_fleet, eager_obs)
    assert lazy == eager
    assert len(eager_obs.spans.entries) == len(eager_obs.spans)  # the oracle built every span
    assert lazy["device_left"] == [0, 0]
    # Fault protection selects the full model for every serve (the drained
    # recorder's form); everywhere else the hits were replayed, on both sides.
    assert kill or lazy["replays"] > REQUESTS // 2


@pytest.mark.parametrize("frontdoor", [False, True], ids=["fleet", "frontdoor"])
def test_every_bound_bites_and_incidents_open(small_bank, frontdoor):
    """The property above, on one cell where nothing is vacuous."""
    cell = dict(
        frontdoor=frontdoor,
        device_capacity=11,
        tail={"slow_ns": 0, "max_spans_per_trace": 12, "span_budget": 150},
        slos=True,
        kill=True,
        capacity=140,
    )
    fleet, observability = run_cell(small_bank, 11, **cell)
    lazy = observed(fleet, observability)
    assert lazy == observed(*run_cell(small_bank, 11, eager=True, **cell))
    tail = lazy["tail"]
    assert tail["truncated_spans"] and tail["budget_dropped_traces"] and tail["retained_traces"]
    assert lazy["dropped"] and all(lazy["device_dropped"])
    assert observability.incidents and any(incident.traces for incident in observability.incidents)
    assert any(name.startswith("card.") and name != "card.service" for name, *_ in lazy["spans"])


def test_capacity_that_straddles_a_reference(small_bank):
    _, unbounded = run_cell(small_bank, 5)
    entries = unbounded.spans.entries
    index = next(i for i, entry in enumerate(entries) if entry.__class__ is DeviceSpans)
    capacity = sum(entry.count for entry in entries[:index]) + 3
    _, bounded = run_cell(small_bank, 5, capacity=capacity)
    last = bounded.spans.entries[-1]
    assert last.__class__ is DeviceSpans and last.count == 3 < entries[index].count
    assert len(bounded.spans) == capacity
    assert bounded.tracer.dropped == len(unbounded.spans) - capacity
    assert [span_tuple(s) for s in bounded.spans] == [
        span_tuple(s) for s in list(unbounded.spans)[:capacity]
    ]
    _, eager = run_cell(small_bank, 5, capacity=capacity, eager=True)
    assert [span_tuple(s) for s in eager.spans] == [span_tuple(s) for s in bounded.spans]
    assert eager.tracer.dropped == bounded.tracer.dropped


# ------------------------------------------------------- nothing built unread
class Constructions:
    """Counts ``TraceEvent`` and ``card.*`` ``Span`` constructions."""

    def __init__(self, monkeypatch):
        self.events = 0
        self.device_spans = 0
        span_init, event_init = Span.__init__, TraceEvent.__init__

        def counting_span(span, name, *args):
            self.device_spans += name.startswith("card.") and name != "card.service"
            span_init(span, name, *args)

        def counting_event(event, *args, **kwargs):
            self.events += 1
            event_init(event, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_span)
        monkeypatch.setattr(TraceEvent, "__init__", counting_event)


def test_a_replayed_run_builds_no_device_event_or_span(small_bank, monkeypatch):
    run, fleet, observability, trace = build_cell(small_bank, 11, lossless=True)
    # Load and record every (function, input length) key first, straight at the
    # fleet, so the counted front-door run is replays only.
    fleet.run(trace)
    entries = sum(len(card.memo._entries) for card in fleet.cards)
    replays = sum(card.memo.replays for card in fleet.cards)
    observability.spans.entries.clear()  # count the front-door run's spans alone
    observability.spans._count = 0
    built = Constructions(monkeypatch)
    run()
    assert sum(card.memo.replays for card in fleet.cards) == replays + REQUESTS
    assert sum(len(card.memo._entries) for card in fleet.cards) == entries
    assert (built.events, built.device_spans) == (0, 0)
    log = observability.spans
    probes = probe_spans(log)
    assert len(log.entries) == 8 * REQUESTS + probes  # seven plain spans and a reference
    assert len(log) == (7 + 15) * REQUESTS + probes and built.device_spans == 0  # len() builds nothing
    # Reading is what builds them, and only then.
    children = sum(
        span.name.startswith("card.") and span.name != "card.service" for span in log
    )
    assert built.device_spans == children == 15 * REQUESTS
    assert built.events == 0


def test_orders_on_a_bridging_fleet_leave_the_device_recorder_empty(small_bank):
    fleet, observability = run_cell(small_bank, 7, frontdoor=False, kill=True, device_capacity=4)
    assert fleet.fault_summary()["scrub_passes"] > 0  # scrub orders ran ...
    assert any(span.name == "order.scrub" for span in observability.tracer.spans)
    for card in fleet.cards:  # ... and what they recorded is gone
        recorder = card.driver.coprocessor.trace
        assert recorder.enabled and recorder.events == []
        assert recorder.dropped > 0  # the bound was charged while they ran


# ------------------------------------------------------------------ exact work
def test_retained_entries_are_seven_spans_and_one_reference_a_request(small_bank):
    """The bridge's deterministic work counter (ROADMAP aim 1).

    On a lossless front door a request leaves seven plain spans —
    ``client.request``, ``net.attempt``, two ``net.link.transit``,
    ``gw.admission``, ``fleet.queue``, ``card.service`` — and one
    device reference standing for as many children as the serve had device
    events: its memo entry's event count when replayed, what the recorder
    held when fully modelled.  An eager per-event record breaks the equality.
    """
    run, fleet, observability, trace = build_cell(small_bank, 11, lossless=True, requests=400)
    served = []  # (request, device events of its serve), tallied outside the log

    def tally(card):
        serve = card.serve

        def serve_and_tally(request):
            replays = card.memo.replays
            result = serve(request)
            if card.memo.replays > replays:
                events = card.memo._entries[request.function, len(request.payload)][2]
            else:
                events = card.device_events[0]
            served.append((request, events))
            return result

        card.serve = serve_and_tally

    for card in fleet.cards:
        tally(card)
    stats = run()
    assert stats.net_completed == len(served) == len(trace) and stats.net_retries == 0
    traced = [events for _, events in served]
    log = observability.spans
    probes = probe_spans(log)
    assert len(log.entries) == 8 * len(traced) + probes
    assert len(log) == 7 * len(traced) + sum(len(events) for events in traced) + probes
    assert len(log.entries) == len(log) - sum(len(events) - 1 for events in traced)
    # A replay's reference *is* its memo entry's tuple: nothing was copied
    # (the log is in settle order, the tally in serve order).
    references = [entry for entry in log.entries if entry.__class__ is DeviceSpans]
    assert sorted(id(entry.events) for entry in references) == sorted(map(id, traced))
    memo_tuples = {id(entry[2]) for card in fleet.cards for entry in card.memo._entries.values()}
    replays = sum(card.memo.replays for card in fleet.cards)
    assert sum(id(entry.events) in memo_tuples for entry in references) == replays
    assert replays > 0.9 * len(trace)


# ------------------------------------------------- a reference outlives its source
def test_a_reference_outlives_its_source(small_bank):
    run, fleet, observability, _ = build_cell(small_bank, 11, frontdoor=False)
    run()
    log = observability.spans
    first = [span_tuple(span) for span in log]
    assert len(first) == len(log) > len(log.entries)
    # Twice the same values, never the same child object.
    assert [span_tuple(span) for span in log] == first
    children = [span for span in log if span.name == "card.fpga.execute"]
    again = [span for span in log if span.name == "card.fpga.execute"]
    assert children and all(a is not b for a, b in zip(children, again))
    children[0].attrs["edited"] = True
    children[0].end_ns += 1
    assert [span_tuple(span) for span in log] == first  # a value: edits stay local
    # Plain spans keep identity (and so keep edits).
    service = next(iter(log))
    assert service.__class__ is Span and next(iter(log)) is service
    # The memo goes, the card is RESET (new statistics objects, empty fabric).
    for card in fleet.cards:
        card.memo = None
        card.driver.reset_card()
    assert [span_tuple(span) for span in log] == first
    # The same fleet traces on after the reset, behind the first run's spans.
    entries = len(log.entries)
    tenants = default_tenant_mix(small_bank, tenants=3, skew=1.2)
    fleet.run(multi_tenant_trace(small_bank, tenants, length=40, mean_interarrival_ns=40_000.0, seed=3))
    rerun = [span_tuple(span) for span in log][len(first):]
    assert len(rerun) == len(log) - len(first) > len(log.entries) - entries > 0
    assert [span_tuple(span) for span in log][len(first):] == rerun
