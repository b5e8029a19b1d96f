"""Property-based invariants of the network front door.

The guarantee the whole E12 story rests on: **requests are conserved and
execute at most once**, for *any* combination of loss rate, retry budget,
admission pressure and deadline budget.  Concretely, after any front-door
run:

1. every issued request reaches exactly one client-visible fate
   (``net_completed + net_failed == net_requests``);
2. the fleet serves only what the gateways admitted, each admission reaches
   exactly one terminal verdict, and no request is admitted twice
   (``completed + rejected + expired == sum(admitted) <= net_requests``) —
   retransmits of an in-flight or served request hit the dedup cache, so a
   lost response can never cause a second execution;
3. every client completion is backed by a fleet execution
   (``net_completed <= completed``; the inequality is strict exactly when a
   response died on the downlink with no retransmit left to replay it);
4. link accounting closes: every offered packet is delivered, lost or
   tail-dropped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import names
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

_BANK = build_small_bank()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    length=st.integers(min_value=1, max_value=40),
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    retries=st.sampled_from([0, 1, 3]),
    shed=st.booleans(),
    deadline_ns=st.sampled_from([None, 2_000_000.0, 30_000_000.0]),
)
def test_requests_are_conserved_and_execute_at_most_once(
    seed, length, loss, retries, shed, deadline_ns
):
    tenants = default_tenant_mix(_BANK, tenants=2)
    trace = multi_tenant_trace(
        _BANK,
        tenants,
        length=length,
        mean_interarrival_ns=20_000.0,
        seed=seed,
    )
    fleet = build_fleet(
        cards=2, config=SMALL_CONFIG.with_overrides(seed=seed), bank=_BANK
    )
    frontdoor = build_frontdoor(
        fleet,
        seed=seed,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=loss, jitter_ns=4_000.0),
        transport=TransportConfig(max_retries=retries),
        admission=(
            AdmissionConfig(rate_per_s=60_000.0, burst=2.0) if shed else None
        ),
        priorities={tenants[0].name: 1},
        deadline_ns=deadline_ns,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    stats = frontdoor.run()

    issued = len(trace)
    assert stats.net_requests == issued
    assert stats.net_completed + stats.net_failed == issued

    admitted = sum(gateway.admitted for gateway in frontdoor.gateways)
    assert stats.completed + stats.rejected + stats.expired == admitted
    assert admitted <= issued
    assert stats.net_completed <= stats.completed

    shed_attempts = sum(stats.per_priority_shed.values())
    assert shed_attempts == stats.shed_total
    if not shed:
        assert stats.shed_total == 0

    links = frontdoor.link_summary()
    assert links["delivered"] + links["lost"] + links["dropped"] == links["offered"]
    # Quiescence: nothing in flight, no orphaned dedup entries pointing at
    # work the fleet still owes a verdict for.
    assert frontdoor.transport.in_flight == 0


def test_net_counters_are_the_registry_instruments_the_hops_write():
    """``stats.net_*`` reads the instruments the transport bumps in place.

    Lossy and overloaded (5 % loss, admission at half the offered rate), so
    retries, timeouts and sheds all happen: the descriptors and the registry
    snapshot are one set of numbers, every attempt is one uplink packet, and
    at quiescence every request has exactly one fate.
    """
    tenants = default_tenant_mix(_BANK, tenants=2)
    trace = multi_tenant_trace(
        _BANK, tenants, length=400, mean_interarrival_ns=20_000.0, seed=7
    )
    fleet = build_fleet(cards=2, config=SMALL_CONFIG.with_overrides(seed=7), bank=_BANK)
    frontdoor = build_frontdoor(
        fleet,
        seed=7,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000, loss=0.05, jitter_ns=4_000),
        admission=AdmissionConfig(rate_per_s=25_000.0, burst=4.0),
        deadline_ns=30_000_000,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    stats = frontdoor.run()
    assert frontdoor.transport.in_flight == 0

    snapshot = stats.registry.snapshot()
    assert stats.net_requests == snapshot[names.METRIC_NET_REQUESTS] == len(trace)
    assert stats.net_attempts == snapshot[names.METRIC_NET_ATTEMPTS]
    assert stats.net_retries == snapshot[names.METRIC_NET_RETRIES] > 0
    assert stats.net_timeouts == snapshot[names.METRIC_NET_TIMEOUTS] > 0
    assert stats.shed_total == snapshot[names.METRIC_NET_SHED] > 0
    assert sum(stats.per_priority_requests.values()) == stats.net_requests
    assert stats.net_attempts == sum(up.offered for up in frontdoor.uplinks)
    assert stats.net_requests == stats.net_completed + stats.net_failed
