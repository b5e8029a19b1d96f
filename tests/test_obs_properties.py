"""Property tests: traced front-door runs produce well-formed span forests.

Hypothesis drives the whole stack — lossy links × retry budgets × a
mid-trace card kill — and asserts the structural contract of the tracing
layer on whatever schedule falls out:

* every trace has exactly one root and no orphaned parent references;
* span counts are conserved against the (independently-migrated)
  ``FleetStatistics`` counters: one client root per network request, one
  attempt span per send, one queue-wait + one service span per completion,
  one link-transit span per delivered packet;
* the exported trace fingerprint is a pure function of the parameters —
  running the same cell twice traces identically, span for span.

The capacity bound is a property too, because the log holds a serve's
``card.*`` sub-spans as one reference and the bound may fall anywhere inside
it.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.faults import FaultSpec
from repro.functions.bank import build_small_bank
from repro.net import LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability, names, trace_fingerprint

REQUESTS = 40


def run_traced(loss, retries, kill, seed, capacity=1_000_000):
    from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

    bank = build_small_bank()
    tenants = default_tenant_mix(bank, tenants=2, skew=1.2)
    trace = multi_tenant_trace(
        bank, tenants, length=REQUESTS, mean_interarrival_ns=30_000.0, seed=seed
    )
    observability = Observability()
    observability.tracer.capacity = capacity
    fleet = build_fleet(
        cards=2,
        config=SMALL_CONFIG.with_overrides(seed=seed),
        bank=bank,
        queue_depth=8,
        observability=observability,
        fault_tolerance=kill,
        scrub_period_ns=100_000.0 if kill else None,
        fault_spec=(
            FaultSpec(card_kill_times_ns=((400_000.0, 0),), seed=seed)
            if kill
            else None
        ),
    )
    frontdoor = build_frontdoor(
        fleet,
        seed=seed,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=loss, jitter_ns=4_000.0),
        transport=TransportConfig(max_retries=retries),
        deadline_ns=30_000_000.0,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    stats = frontdoor.run()
    return frontdoor, observability, stats


@settings(max_examples=10, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.35),
    retries=st.integers(min_value=0, max_value=3),
    kill=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
)
def test_traced_runs_yield_wellformed_conserved_span_forests(
    loss, retries, kill, seed
):
    frontdoor, observability, stats = run_traced(loss, retries, kill, seed)
    spans = observability.spans
    assert spans, "a traced run must record spans"
    assert observability.tracer.dropped == 0

    by_trace = defaultdict(list)
    by_name = defaultdict(int)
    for span in spans:
        assert span.end_ns >= span.start_ns
        assert isinstance(span.start_ns, int) and isinstance(span.end_ns, int)
        assert span.name in names.SPAN_NAMES or span.name.startswith(
            names.DEVICE_SPAN_PREFIX
        )
        by_trace[span.trace_id].append(span)
        by_name[span.name] += 1

    for trace_id, trace_spans in by_trace.items():
        roots = [span for span in trace_spans if span.parent_id is None]
        assert len(roots) == 1, f"trace {trace_id} has {len(roots)} roots"
        span_ids = {span.span_id for span in trace_spans}
        for span in trace_spans:
            if span.parent_id is not None:
                assert span.parent_id in span_ids, f"orphan in trace {trace_id}"

    # Conservation against the FleetStatistics counters.
    assert by_name[names.SPAN_CLIENT_REQUEST] == stats.net_requests == REQUESTS
    assert by_name[names.SPAN_NET_ATTEMPT] == stats.net_requests + stats.net_retries
    admitted = sum(
        1
        for span in spans
        if span.name == names.SPAN_GW_ADMISSION
        and span.attrs.get("verdict") == "admitted"
    )
    assert admitted == sum(gateway.admitted for gateway in frontdoor.gateways)
    assert by_name[names.SPAN_FLEET_QUEUE] == by_name[names.SPAN_CARD_SERVICE]
    assert by_name[names.SPAN_CARD_SERVICE] == stats.completed
    assert by_name[names.SPAN_LINK_TRANSIT] == frontdoor.link_summary()["delivered"]
    # Backoff sleeps can outlive their request, so they bound retries above.
    assert by_name[names.SPAN_NET_BACKOFF] >= stats.net_retries

    # The whole trace is a pure function of the cell parameters.
    _, rerun, _ = run_traced(loss, retries, kill, seed)
    assert trace_fingerprint(rerun.spans) == trace_fingerprint(spans)


def span_values(spans):
    return [
        (s.name, s.trace_id, s.span_id, s.parent_id, s.start_ns, s.end_ns, sorted(s.attrs.items()))
        for s in spans
    ]


@settings(max_examples=12, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=800), seed=st.integers(min_value=0, max_value=9))
def test_capacity_bounds_retained_spans_and_counts_the_rest(capacity, seed):
    _, unbounded, _ = run_traced(0.0, 1, False, seed=seed)
    total = len(unbounded.spans)
    assert total > 800 and len(unbounded.spans.entries) < total // 2  # device references in the log
    _, bounded, _ = run_traced(0.0, 1, False, seed=seed, capacity=capacity)
    assert len(bounded.spans) == capacity
    assert bounded.tracer.dropped == total - capacity
    assert bounded.tracer._next_span == unbounded.tracer._next_span
    # The retained spans are the first ones the unbounded run recorded,
    # wherever the bound fell — between two spans or inside a reference.
    assert span_values(bounded.spans) == span_values(list(unbounded.spans)[:capacity])
