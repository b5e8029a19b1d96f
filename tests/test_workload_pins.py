"""Every workload generator, pinned to the byte.

Each case below is one generator at fixed arguments.  Its digest is SHA-256
over one ``repr`` line per request: ``(tenant, function, arrival_ns,
deadline_ns, payload)`` for a fleet request, ``(function, payload)`` for a
closed-loop one.  The values are frozen: a change to
``repro.workloads`` that moves one draw, one arrival instant or one payload
byte fails here by name, before any report or schedule digest moves.

``test_the_stream_is_the_materialised_trace`` is the check the
:class:`~repro.workloads.multitenant.StreamingFleetTrace` docstring cites: the
stream and :func:`~repro.workloads.multitenant.multi_tenant_trace` are one loop.
"""

import hashlib

import pytest

from repro.workloads import (
    FleetRequest,
    TenantSpec,
    bursty_trace,
    default_tenant_mix,
    dsp_pipeline_trace,
    hash_server_trace,
    ipsec_gateway_trace,
    multi_tenant_trace,
    phased_trace,
    repeated_trace,
    round_robin_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads import generators
from repro.workloads.multitenant import StreamingFleetTrace


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for request in trace:
        if isinstance(request, FleetRequest):
            row = (
                request.tenant,
                request.function,
                request.arrival_ns,
                request.deadline_ns,
                request.payload,
            )
        else:
            row = (request.function, request.payload)
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def mixed_tenants(bank):
    """Every tenant knob: all three mixes, rotation and a function subset."""
    names = tuple(bank.names())
    return [
        TenantSpec("hot", skew=0.9, functions=names, rank_offset=2),
        TenantSpec("phase", mix="phased", functions=names),
        TenantSpec("flat", mix="uniform", functions=names[:3]),
        TenantSpec("tail", skew=1.6, rank_offset=5),
    ]


def fleet_trace(bank, tenants, bound):
    specs = default_tenant_mix(bank, tenants=3) if tenants == "default" else mixed_tenants(bank)
    if bound == "count":
        return multi_tenant_trace(bank, specs, length=300, mean_interarrival_ns=20_000.0, seed=5)
    return multi_tenant_trace(
        bank, specs, length=10_000, mean_interarrival_ns=20_000.0, seed=5, duration_ns=6_000_000
    )


def closed_loop_trace(bank, generator, monkeypatch):
    if generator == "uniform":
        return uniform_trace(bank, 200, seed=3, payload_blocks=2)
    if generator == "zipf":
        return zipf_trace(bank, 200, skew=0.8, seed=3)
    if generator == "phased":
        monkeypatch.setattr(generators, "WORKING_SET", 2)
        return phased_trace(bank, 200, phase_length=30, seed=3)
    if generator == "round_robin":
        return round_robin_trace(bank, 200, repeats_per_function=3, seed=3)
    if generator == "bursty":
        return bursty_trace(bank, 200, mean_burst=5, seed=3)
    return repeated_trace(bank, bank.names()[-1], 50, seed=3, payload_blocks=4)


APPS = {"ipsec": ipsec_gateway_trace, "hash_server": hash_server_trace, "dsp": dsp_pipeline_trace}

PINS = {
    "multi_tenant-small-poisson-default-count": "7c0f653822dd747371c710940591e3e61c0c9047731245755d1b327b07bab793",
    "multi_tenant-small-poisson-default-duration": "f4223d5c8b7ed60d66a242ca0e4005644aad0829821edce714f79ecc43d0df75",
    "multi_tenant-small-poisson-mixed-count": "bf1422ac1cab1748f970ccd8eb4502f7b5be7de8b5f871a09dc32d403a9973a4",
    "multi_tenant-small-poisson-mixed-duration": "e79a5b0487e7e6a6445b9a1b2f17647111c4ac94c23efb843de675a4a686ef8a",
    "multi_tenant-default-poisson-default-count": "930a0fb6a9fcbb347b6b4058d575f11bd0ed0aaa39af7a62a07d1f4ae9d9df54",
    "multi_tenant-default-poisson-default-duration": "41e6083d7d9ccbd6af6546e378fa90d28dc1c5ad7f323203e50e71612e4b21ac",
    "multi_tenant-default-poisson-mixed-count": "b5ba1e6e512afecc0dc6eea91923e4262a1c2bade27c895abb0a758049895048",
    "multi_tenant-default-poisson-mixed-duration": "c964aaf3b92bdcff418bc0fc8dc65bb2a681ff92009fd91603f1737b7b4e241d",
    "streaming-small-seed11": "55aaa39a6233b7df760b49de2c1de30e60225c20747a98b73ffe726a7ffc5a30",
    "closed-small-uniform": "07063e5eebd6bde9e83e852a875ccf62f3c6b82c811b159448919c30ad1236d9",
    "closed-small-zipf": "f4f9d4f755c2c080e35317a48cbc19efe51ba891fd49594d5d71b746964ce1ec",
    "closed-small-phased": "ff48662938ae8cd5e53cc3d2be3ae15c1744fc03aef57a5b46a28e9f5210a2f7",
    "closed-small-round_robin": "295dc7ce750d210f1fb7a0e8af4e41cd62b7ea2ff5d6e7b6f09a1f2bd61c8b23",
    "closed-small-bursty": "03a28e2b8a8a1298d258566a0560fe47d436c4d02689f8a8fcc0bfd2f864b6f9",
    "closed-small-repeated": "0e3875207408f7ffa10397df2bdce6fb02965cd193975dbe5da53c01e8dfd155",
    "closed-default-uniform": "ebef5af9d168bb99010041d805614e7a4f22d1b038cdf3b7add2551f2cea7f3d",
    "closed-default-zipf": "44cc3cab40374c3f1715e30dab782fd753501b0a1f4ee85337f053235b3b08ac",
    "closed-default-phased": "b7fa3f5fa4d29bd62e3b1838a083e9e2c04d55680aa35b67256fc8f12d1df7e4",
    "closed-default-round_robin": "0dca1983738b22b0ebedee6d8c23bec1e8f159ce72ab0417baefa80595690798",
    "closed-default-bursty": "454f657aee233b0fbee07d2a7d90eb53ad0edea0ef727d38dabd31952b72b88a",
    # Both banks end on popcount8, so the two repeated traces are one trace.
    "closed-default-repeated": "0e3875207408f7ffa10397df2bdce6fb02965cd193975dbe5da53c01e8dfd155",
    "app-default-ipsec": "91b4e0e3040b43c17d225dd3409af1aa76d3b815dc84b6300e7a56a16a3b2276",
    "app-default-hash_server": "2120ccea2e392616eb1ea5cd9881f98c0ea81dcaeff377de628d93d4af1a7140",
    "app-default-dsp": "e7f89601dce27aa681d9da114fc85cfd51a50bcd783378cdd597cb08db74ec73",
}


def build_case(case, request):
    kind, bank_name, *rest = case.split("-")
    bank = request.getfixturevalue(f"{bank_name}_bank")
    if kind == "multi_tenant":
        return fleet_trace(bank, *rest[1:])  # every multi-tenant trace is Poisson
    if kind == "streaming":
        tenants = default_tenant_mix(bank, tenants=4)
        return StreamingFleetTrace(bank, tenants, 2_000, mean_interarrival_ns=40_000.0, seed=11)
    if kind == "app":
        return APPS[rest[0]](bank, seed=2)
    return closed_loop_trace(bank, rest[0], request.getfixturevalue("monkeypatch"))


CASES = (
    [
        f"multi_tenant-{bank}-poisson-{tenants}-{bound}"
        for bank in ("small", "default")
        for tenants in ("default", "mixed")
        for bound in ("count", "duration")
    ]
    + ["streaming-small-seed11"]
    + [
        f"closed-{bank}-{generator}"
        for bank in ("small", "default")
        for generator in ("uniform", "zipf", "phased", "round_robin", "bursty", "repeated")
    ]
    + [f"app-default-{app}" for app in APPS]
)


@pytest.mark.parametrize("case", CASES)
def test_generator_is_pinned(case, request):
    assert trace_digest(build_case(case, request)) == PINS[case]


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


def test_the_stream_is_the_materialised_trace(small_bank):
    tenants = default_tenant_mix(small_bank, tenants=4)
    stream = StreamingFleetTrace(small_bank, tenants, 2_000, mean_interarrival_ns=40_000.0, seed=11)
    trace = multi_tenant_trace(
        small_bank, tenants, length=2_000, mean_interarrival_ns=40_000.0, seed=11
    )
    assert list(stream) == list(trace)
    assert list(stream) == list(trace)  # restartable: a second pass replays it


def test_a_stream_takes_every_tenant_mix(default_bank):
    tenants = mixed_tenants(default_bank)
    stream = StreamingFleetTrace(default_bank, tenants, 500, mean_interarrival_ns=20_000.0, seed=5)
    trace = multi_tenant_trace(default_bank, tenants, length=500, mean_interarrival_ns=20_000.0, seed=5)
    assert list(stream) == list(trace)
    assert {request.tenant for request in stream} == {"hot", "phase", "flat", "tail"}
