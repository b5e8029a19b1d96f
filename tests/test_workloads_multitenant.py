"""Multi-tenant open-arrival trace generation."""

import hashlib

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
    def test_rejects_bad_weight_and_mix(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", functions=())
        with pytest.raises(ValueError):
            TenantSpec(name="t", mix="nonsense")
        with pytest.raises(ValueError):
            TenantSpec(name="t", mix="phased", phase_length=0)

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
        counts = trace.per_tenant_counts()
        assert set(counts) == {"tenant0", "tenant1", "tenant2"}
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == 300

    def test_weights_shift_traffic_shares(self, bank):
        heavy = TenantSpec(name="heavy", weight=9.0, functions=tuple(bank.names()))
        light = TenantSpec(name="light", weight=1.0, functions=tuple(bank.names()))
        trace = multi_tenant_trace(bank, [heavy, light], length=400, seed=4)
        counts = trace.per_tenant_counts()
        assert counts["heavy"] > 3 * counts["light"]

    def test_rank_offset_rotates_hot_function(self, bank):
        names = bank.names()
        for offset in range(len(names)):
            spec = TenantSpec(
                name="t", mix="zipf", skew=2.5, functions=tuple(names), rank_offset=offset
            )
            trace = multi_tenant_trace(bank, [spec], length=200, seed=6)
            counts = trace.function_counts()
            hottest = max(counts, key=counts.get)
            assert hottest == names[offset]

    def test_phased_tenant_changes_working_set(self, bank):
        spec = TenantSpec(
            name="t", mix="phased", functions=tuple(bank.names()),
            phase_length=50, working_set=1,
        )
        trace = multi_tenant_trace(bank, [spec], length=200, seed=8)
        functions = [request.function for request in trace]
        # With a working set of one, each 50-request phase is a constant run;
        # across 4 phases at least two distinct functions must appear.
        assert len(set(functions)) >= 2
        for start in range(0, 200, 50):
            assert len(set(functions[start : start + 50])) == 1

    def test_bursty_arrivals_are_deterministic_and_clustered(self, bank):
        specs = default_tenant_mix(bank, tenants=2)
        first = multi_tenant_trace(
            bank, specs, length=150, arrival="bursty", mean_interarrival_ns=10_000.0, seed=9
        )
        second = multi_tenant_trace(
            bank, specs, length=150, arrival="bursty", mean_interarrival_ns=10_000.0, seed=9
        )
        assert trace_digest(first) == trace_digest(second)
        gaps = [
            second[i + 1].arrival_ns - second[i].arrival_ns for i in range(len(second) - 1)
        ]
        mean_gap = sum(gaps) / len(gaps)
        # Bursty = high variability: many gaps far below the mean.
        assert sum(1 for gap in gaps if gap < mean_gap / 2) > len(gaps) / 3

    def test_bursty_long_run_rate_matches_poisson(self, bank):
        specs = default_tenant_mix(bank, tenants=2)
        bursty = multi_tenant_trace(
            bank, specs, length=2000, arrival="bursty", mean_interarrival_ns=10_000.0, seed=9
        )
        # The leading idle gap of each burst compensates for the fast
        # in-burst gaps, so the long-run mean gap stays the configured mean.
        assert 8_000.0 < bursty.duration_ns / len(bursty) < 12_000.0

    def test_payloads_match_function_spec(self, bank):
        spec = TenantSpec(name="t", functions=tuple(bank.names()), payload_blocks=2)
        trace = multi_tenant_trace(bank, [spec], length=40, seed=10)
        for request in trace:
            expected = bank.by_name(request.function).spec.input_bytes * 2
            assert request.payload_bytes == expected

    def test_validation_errors(self, bank):
        specs = default_tenant_mix(bank, tenants=1)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, [], length=5)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=-1)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=5, mean_interarrival_ns=0.0)
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=5, arrival="martian")
        with pytest.raises(ValueError):
            multi_tenant_trace(bank, specs, length=5, arrival="bursty", burst_speedup=1.0)
        # Burst knobs are ignored (and not validated) on the poisson path.
        assert (
            len(multi_tenant_trace(bank, specs, length=5, arrival="poisson", burst_speedup=1.0))
            == 5
        )
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
        assert trace[0].tenant == "a"  # sorted by arrival
        assert trace.tenants() == ["a", "b"]
        assert trace.function_counts() == {"crc32": 2}
        assert "2 requests" in trace.describe()
        assert trace.duration_ns == 20.0

    def test_empty_trace(self):
        trace = FleetTrace([], name="empty")
        assert len(trace) == 0
        assert trace.duration_ns == 0.0
