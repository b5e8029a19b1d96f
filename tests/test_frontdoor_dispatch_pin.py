"""Pins of the front door's kernel dispatch order and of its request record.

**Dispatch order.**  A profile hook records ``(clock instant, code name)`` for
every frame :meth:`Simulator.run` enters directly — each kernel entry the run
dispatches, in the order it dispatches them, same-instant ties included —
and the SHA-256 of that log is held ``==`` for a lossy, jittered,
deadline-bounded front door with two gateways at overload, where shedding,
timeouts, retries, dedup replays, breaker opens and fast fails, fleet
rejections and expiries all fire (its links' egress queues bound to 8
packets and its first backoff 20 µs, ``QUEUE_PACKETS`` and
``BACKOFF_BASE_NS`` patched); then for the same front door traced.  How
an entry reaches the queue (``schedule_call`` or a direct heap push with the
same ``(time, seq)`` key) is free; which entry runs when is not.

**The request record.**  :class:`~repro.net.transport.GatewayRequest`'s
fields, their order and defaults, what the front door stamps at launch and
what the gateway re-stamps on the copy it admits to the fleet.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
from unittest import mock

import pytest

from repro.cluster.fleet import Fleet
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.net import link as link_module
from repro.net import transport as transport_module
from repro.net import (
    AdmissionConfig,
    GatewayRequest,
    LinkSpec,
    OpenLoopPopulation,
    Transport,
    TransportConfig,
)
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

REQUESTS = 2_000

#: The overload cell's net and fleet counters (the same traced or not).
COUNTERS = {
    "net_requests": 2_000,
    "net_completed": 1_730,
    "net_failed": 270,
    "net_retries": 406,
    "net_timeouts": 2_202,
    "shed_total": 60,
    "breaker_opens": 333,
    "breaker_fast_fails": 168,
    "duplicates_served": 88,
    "expired": 10,
    "rejected": 243,
}

#: ``(entries dispatched, SHA-256 of the dispatch log)``: tracing queues
#: nothing, so both cells dispatch the same log.
DISPATCH_LOG = (
    13_090,
    "3ef659a4cd429f980655071167e7477c64f0619033032c0bec5c2c0b53adff96",
)


def build_cell(traced: bool):
    bank = build_small_bank()
    tenants = default_tenant_mix(bank, tenants=3)
    trace = multi_tenant_trace(
        bank, tenants, length=REQUESTS, mean_interarrival_ns=1_500.0, seed=7
    )
    fleet = build_fleet(
        cards=2,
        config=SMALL_CONFIG.with_overrides(seed=7),
        bank=bank,
        queue_depth=4,
        observability=Observability() if traced else None,
    )
    frontdoor = build_frontdoor(
        fleet,
        seed=7,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000, loss=0.05, jitter_ns=6_000),
        transport=TransportConfig(
            per_hop_timeout_ns=45_000,
            backoff_cap_ns=200_000,
            breaker_threshold=3,
            breaker_open_ns=300_000,
        ),
        admission=AdmissionConfig(rate_per_s=500_000, burst=8),
        priorities={tenants[0].name: 1},
        deadline_ns=250_000,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    return frontdoor


def dispatch_log(traced: bool):
    """Run the cell under a profile hook; returns ``(stats, log)``."""
    frontdoor = build_cell(traced)
    clock = frontdoor.fleet.clock
    run_code = Simulator.run.__code__
    log = []
    append = log.append

    def hook(frame, event, _):
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code is run_code:
                append((clock._now, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        stats = frontdoor.run()
    finally:
        sys.setprofile(previous)
    return stats, log


@pytest.mark.parametrize("cell", ["untraced", "traced"])
def test_the_overload_cell_dispatches_in_the_pinned_order(cell, monkeypatch):
    monkeypatch.setattr(link_module, "QUEUE_PACKETS", 8)
    monkeypatch.setattr(transport_module, "BACKOFF_BASE_NS", 20_000)
    stats, log = dispatch_log(cell == "traced")
    assert {name: getattr(stats, name) for name in COUNTERS} == COUNTERS
    sha = hashlib.sha256()
    for instant, name in log:
        sha.update(f"{instant}|{name}\n".encode())
    assert (len(log), sha.hexdigest()) == DISPATCH_LOG


# ------------------------------------------------------------- the record
def test_the_record_keeps_its_fields_order_and_defaults():
    parameters = inspect.signature(GatewayRequest).parameters
    assert [(name, parameter.default) for name, parameter in parameters.items()] == [
        ("tenant", inspect.Parameter.empty),
        ("function", inspect.Parameter.empty),
        ("payload", inspect.Parameter.empty),
        ("arrival_ns", inspect.Parameter.empty),
        ("deadline_ns", None),
        ("request_id", -1),
        ("priority", 0),
        ("gateway_index", 0),
    ]
    request = GatewayRequest("t", "crc32", b"abc", 5)
    assert (
        request.tenant,
        request.function,
        request.payload,
        request.arrival_ns,
        request.deadline_ns,
        request.request_id,
        request.priority,
        request.gateway_index,
    ) == ("t", "crc32", b"abc", 5, None, -1, 0, 0)
    keyword = GatewayRequest(
        tenant="t", function="crc32", payload=b"abc", arrival_ns=5, priority=2
    )
    assert (keyword.deadline_ns, keyword.request_id, keyword.priority) == (None, -1, 2)


def test_the_gateway_re_stamps_arrival_and_gateway_on_the_admitted_copy():
    """Launch stamps id, priority, deadline and the home-gateway hint; the
    admitting gateway submits a new record with ``arrival_ns`` its own
    instant and ``gateway_index`` its own index, everything else kept."""
    bank = build_small_bank()
    tenants = default_tenant_mix(bank, tenants=2)
    trace = multi_tenant_trace(
        bank, tenants, length=60, mean_interarrival_ns=40_000.0, seed=3
    )
    launched = {}
    submitted = []
    transport_submit = Transport.submit
    fleet_submit = Fleet.submit

    def launch_spy(transport, request):
        launched[request.request_id] = (transport.clock._now, request)
        transport_submit(transport, request)

    def admit_spy(fleet, request):
        submitted.append((fleet.clock._now, request))
        fleet_submit(fleet, request)

    with mock.patch.object(Transport, "submit", launch_spy), mock.patch.object(
        Fleet, "submit", admit_spy
    ):
        fleet = build_fleet(
            cards=2, config=SMALL_CONFIG.with_overrides(seed=3), bank=bank, queue_depth=8
        )
        frontdoor = build_frontdoor(
            fleet,
            seed=3,
            gateways=3,
            uplink=LinkSpec(latency_ns=20_000),
            priorities={tenants[1].name: 2},
            deadline_ns=5_000_000,
        )
        frontdoor.add_population(OpenLoopPopulation(trace))
        stats = frontdoor.run()
    assert stats.net_completed == len(submitted) == len(launched) == 60
    for admitted_ns, admitted in submitted:
        launched_ns, original = launched[admitted.request_id]
        assert admitted is not original
        assert original.arrival_ns == launched_ns
        assert original.deadline_ns == launched_ns + 5_000_000
        assert original.gateway_index == original.request_id % 3
        assert original.priority == (2 if original.tenant == tenants[1].name else 0)
        assert admitted.arrival_ns == admitted_ns > launched_ns
        assert admitted.gateway_index == original.gateway_index
        for name in ("tenant", "function", "payload", "deadline_ns", "request_id", "priority"):
            assert getattr(admitted, name) == getattr(original, name)
