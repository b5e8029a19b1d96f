"""Multi-tenant open-arrival trace generation."""

import hashlib
from collections import Counter

import pytest

from repro.functions.bank import build_small_bank
from repro.workloads.multitenant import (
    FleetRequest,
    FleetTrace,
    TenantSpec,
    default_tenant_mix,
    multi_tenant_trace,
)


@pytest.fixture(scope="module")
def bank():
    return build_small_bank()


def trace_digest(trace):
    digest = hashlib.sha256()
    for request in trace:
        digest.update(
            f"{request.tenant}|{request.function}|{request.arrival_ns!r}|".encode()
        )
        digest.update(request.payload)
    return digest.hexdigest()


class TestTenantSpec:
    def test_rejects_an_empty_function_list_and_an_unknown_mix(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", functions=())
        with pytest.raises(ValueError):
            TenantSpec(name="t", mix="nonsense")

    def test_default_mix_staggers_rank_offsets(self, bank):
        specs = default_tenant_mix(bank, tenants=3, skew=1.0)
        assert [spec.rank_offset for spec in specs] == [0, 1, 2]
        assert len({spec.name for spec in specs}) == 3


class TestMultiTenantTrace:
    def test_deterministic_across_generations(self, bank):
        specs = default_tenant_mix(bank, tenants=3, skew=1.2)
        first = multi_tenant_trace(bank, specs, length=120, seed=42)
        second = multi_tenant_trace(bank, specs, length=120, seed=42)
        assert trace_digest(first) == trace_digest(second)

    def test_seed_changes_trace(self, bank):
        specs = default_tenant_mix(bank, tenants=3)
        first = multi_tenant_trace(bank, specs, length=120, seed=1)
        second = multi_tenant_trace(bank, specs, length=120, seed=2)
        assert trace_digest(first) != trace_digest(second)

    def test_arrivals_are_sorted_and_open(self, bank):
        specs = default_tenant_mix(bank, tenants=2)
        trace = multi_tenant_trace(bank, specs, length=80, mean_interarrival_ns=1000.0, seed=5)
        arrivals = [request.arrival_ns for request in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0
        assert trace.duration_ns == arrivals[-1]

    def test_every_tenant_contributes(self, bank):
        specs = default_tenant_mix(bank, tenants=3)
        trace = multi_tenant_trace(bank, specs, length=300, seed=3)
        counts = Counter(request.tenant for request in trace)
        assert set(counts) == {"tenant0", "tenant1", "tenant2"}
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == 300

    def test_tenants_share_traffic_equally(self, bank):
        tenants = [TenantSpec(name=name, functions=tuple(bank.names())) for name in ("a", "b")]
        trace = multi_tenant_trace(bank, tenants, length=400, seed=4)
        counts = Counter(request.tenant for request in trace)
        assert counts["a"] + counts["b"] == 400
        assert abs(counts["a"] - counts["b"]) < 60  # 3 standard deviations of a fair split

    def test_rank_offset_rotates_hot_function(self, bank):
        names = bank.names()
        for offset in range(len(names)):
            spec = TenantSpec(
                name="t", mix="zipf", skew=2.5, functions=tuple(names), rank_offset=offset
            )
            trace = multi_tenant_trace(bank, [spec], length=200, seed=6)
            counts = Counter(request.function for request in trace)
            hottest = max(counts, key=counts.get)
            assert hottest == names[offset]

    def test_phased_tenant_changes_working_set(self, bank):
        spec = TenantSpec(name="t", mix="phased", functions=tuple(bank.names()))
        trace = multi_tenant_trace(bank, [spec], length=200, seed=8)
        functions = [request.function for request in trace]
        # A phased tenant takes the chooser's phases: 50 requests over a
        # working set of three.  Across 4 phases the set must change.
        assert len(set(functions)) > 3
        for start in range(0, 200, 50):
            assert len(set(functions[start : start + 50])) <= 3

    def test_payloads_match_function_spec(self, bank):
        spec = TenantSpec(name="t", functions=tuple(bank.names()))
        trace = multi_tenant_trace(bank, [spec], length=40, seed=10)
        for request in trace:
            assert len(request.payload) == bank.by_name(request.function).spec.input_bytes

    def test_validation_errors(self, bank):
        specs = default_tenant_mix(bank, tenants=1)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, [], length=5)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=-1)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=5, mean_interarrival_ns=0.0)
        with pytest.raises(KeyError):
            multi_tenant_trace(
                bank, [TenantSpec(name="t", functions=("missing",))], length=5
            )


class TestFleetTrace:
    def test_container_queries(self, bank):
        requests = [
            FleetRequest(tenant="b", function="crc32", payload=b"x", arrival_ns=20.0),
            FleetRequest(tenant="a", function="crc32", payload=b"y", arrival_ns=10.0),
        ]
        trace = FleetTrace(requests, name="t")
        assert len(trace) == 2
        assert [request.tenant for request in trace] == ["a", "b"]
        assert trace.duration_ns == 20.0

    def test_empty_trace(self):
        trace = FleetTrace([], name="empty")
        assert len(trace) == 0
        assert trace.duration_ns == 0.0
