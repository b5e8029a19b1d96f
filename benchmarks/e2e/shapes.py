"""The eight benchmark workloads, built only through the public builders.

Every workload is a :class:`Shape` with the same five steps, which the
runner times one by one::

    bank  = shape.build_bank()                 # span.bank_build_s
    trace = shape.make_trace(bank, seed, ops)  # span.trace_gen_s
    system = shape.build_system(bank, trace, seed)   # span.system_build_s
    shape.run(system)                          # span.run_s  (the timed call)
    outcome = shape.outcome(system)            # span.finalize_s

``outcome`` is a flat dict of *simulated* results (exact for a given seed)
and public counters; no host time ever enters it, so two runs of the same
seed must produce equal outcomes and the runner checks that they do.

The scale opt-ins (``stats_mode``, ``hit_fastpath``, ``admission_batch``,
``Simulator(eager_get=...)``) are passed only while ``inspect.signature``
still offers them (:func:`offered`), so the change that makes them the only
behaviour and deletes the keyword arguments runs this file unedited.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence

# The package under measurement is imported inside the functions: the runner
# times ``import repro`` as its own span before it touches a shape.

#: Opt-ins of the scale configuration; each is applied only when offered.
SCALE_OPTINS = {"stats_mode": "sketch", "hit_fastpath": True, "admission_batch": 32}


def offered(callable_: Callable, wanted: Dict[str, object], applied: List[str]) -> Dict[str, object]:
    """The subset of *wanted* keyword arguments *callable_* still accepts.

    Names that were passed are appended to *applied* (the run manifest's
    ``optins_applied``); names that are gone are silently the default.
    """
    parameters = inspect.signature(callable_).parameters
    kept = {name: value for name, value in wanted.items() if name in parameters}
    applied.extend(name for name in kept if name not in applied)
    return kept


def percentile_of(ordered: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


# ------------------------------------------------------------------ counters
def card_counters(drivers, makespan_ns: float) -> Dict[str, float]:
    """Sum the public per-card counters of *drivers* (host + PCI + card)."""
    totals = dict.fromkeys(
        (
            "reconfigs", "pci_transactions", "pci_bytes", "pci_busy_ns",
            "evictions", "frames_evicted", "rom_reads", "rom_bytes",
            "frames_written", "config_bytes", "port_busy_ns", "executions",
            "raw_bytes", "stored_bytes",
        ),
        0.0,
    )
    for driver in drivers:
        copro = driver.coprocessor
        totals["reconfigs"] += copro.stats.misses
        totals["pci_transactions"] += driver.bus.transactions_completed
        totals["pci_bytes"] += driver.bus.bytes_transferred
        totals["pci_busy_ns"] += driver.bus.busy_time_ns
        totals["evictions"] += copro.minios.stats.evictions
        totals["frames_evicted"] += copro.minios.stats.frames_evicted
        totals["rom_reads"] += copro.rom.total_reads
        totals["rom_bytes"] += copro.rom.total_bytes_read
        port = copro.device.port.stats
        totals["frames_written"] += port.frames_written
        totals["config_bytes"] += port.bytes_written
        totals["port_busy_ns"] += port.busy_time_ns
        totals["executions"] += copro.device.total_executions
        for report in copro.download_reports.values():
            totals["raw_bytes"] += report["raw_bytes"]
            totals["stored_bytes"] += report["stored_bytes"]
    card_time = makespan_ns * len(drivers)
    totals["pci_busy_share"] = totals.pop("pci_busy_ns") / card_time if card_time else 0.0
    totals["port_busy_share"] = totals.pop("port_busy_ns") / card_time if card_time else 0.0
    return totals


def fleet_outcome(fleet, offered_ops: int) -> Dict[str, object]:
    """Outcome of a run whose operations are fleet arrivals."""
    stats = fleet.stats
    p50, p95, p99 = (stats.latency_percentile(p) for p in (50, 95, 99))
    faults = fleet.fault_summary()
    outcome = {
        "offered": offered_ops,
        "arrivals": stats.arrivals,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "net_failed": 0,
        "expired": stats.expired,
        "mean_ns": stats.mean_sojourn_ns,
        "p50_ns": p50,
        "p95_ns": p95,
        "p99_ns": p99,
        "hit_rate": stats.hit_rate,
        "end_ns": fleet.clock.now,
        "digest": stats.schedule_digest(),
        "events": fleet.simulator.events_dispatched,
        "replays": sum(card.memo.replays for card in fleet.cards if card.memo is not None),
        "failovers": stats.failovers,
        "card_failures": faults["card_failures"],
        "heals_completed": stats.heals_completed,
        "migrations_completed": stats.migrations_completed,
        "migration_byte_diffs": stats.migration_byte_diffs,
        "scrub_frames": faults["scrub_frames_checked"],
        "scrub_corrected": faults["scrub_corrected"],
        "scrub_uncorrectable": faults["scrub_uncorrectable"],
        "silent_corruption_rate": faults["silent_corruption_rate"],
    }
    outcome.update(card_counters([card.driver for card in fleet.cards], fleet.clock.now))
    return outcome


def frontdoor_outcome(frontdoor, offered_ops: int) -> Dict[str, object]:
    """Outcome of a run whose operations are client requests at the front door."""
    fleet = frontdoor.fleet
    stats = fleet.stats
    outcome = fleet_outcome(fleet, offered_ops)
    links = frontdoor.link_summary()
    outcome.update(
        {
            # The client's view replaces the fleet's: an operation is one
            # client request, timed from its first send to its response.
            "arrivals": stats.net_requests,
            "completed": stats.net_completed,
            "rejected": 0,
            "net_failed": stats.net_failed,
            "expired": 0,
            "fleet_rejected": stats.rejected,
            "fleet_expired": stats.expired,
            "mean_ns": stats.mean_net_latency_ns,
            "p50_ns": stats.net_latency_percentile(50),
            "p95_ns": stats.net_latency_percentile(95),
            "p99_ns": stats.net_latency_percentile(99),
            "retries": stats.net_retries,
            "shed": stats.shed_total,
            "duplicates_served": stats.duplicates_served,
            "packets_offered": links["offered"],
            "packets_lost": links["lost"],
        }
    )
    obs = fleet.obs
    if obs is not None:
        outcome["spans"] = len(obs.spans)
        outcome["spans_dropped"] = obs.tracer.dropped
    return outcome


# -------------------------------------------------------------------- shapes
class Shape:
    """One workload.  Subclasses fill in the five steps."""

    name = ""
    why = ""
    #: Operations offered by one timed run at ``--scale 1``.
    ops = 0
    #: Smallest run that still exercises the shape (the self-test's size).
    min_ops = 200

    def __init__(self) -> None:
        #: Scale opt-ins that were actually passed (run manifest).
        self.optins_applied: List[str] = []

    def build_bank(self):
        from repro.functions.bank import build_small_bank

        return build_small_bank()

    def config(self, seed: int):
        from repro.core.config import SMALL_CONFIG

        return SMALL_CONFIG.with_overrides(seed=seed)

    def tenants(self, bank):
        from repro.workloads.multitenant import default_tenant_mix

        return default_tenant_mix(bank, tenants=3, skew=1.2)

    def make_trace(self, bank, seed: int, ops: int):
        raise NotImplementedError

    def build_system(self, bank, trace, seed: int):
        raise NotImplementedError

    def run(self, system) -> None:
        raise NotImplementedError

    def outcome(self, system) -> Dict[str, object]:
        raise NotImplementedError

    def violations(self, outcome: Dict[str, object]) -> List[str]:
        """Shape-specific invariants; the accounting identity is checked for all."""
        return []

    def scale_kwargs(self) -> Dict[str, object]:
        """``build_fleet`` keyword arguments of the scale configuration still on offer."""
        from repro.core.builder import build_fleet
        from repro.sim.kernel import Simulator

        kwargs = offered(build_fleet, SCALE_OPTINS, self.optins_applied)
        if "simulator" in inspect.signature(build_fleet).parameters:
            kwargs["simulator"] = Simulator(**offered(Simulator, {"eager_get": True}, self.optins_applied))
        return kwargs


class FleetHitScale(Shape):
    name = "fleet_hit_scale"
    why = (
        "400k streamed requests, 3 cards, scale opt-ins: card model bypassed by the hit "
        "fast path, so cluster/analysis/sim/workloads carry the time"
    )
    ops = 400_000

    def make_trace(self, bank, seed, ops):
        from repro.workloads.multitenant import StreamingFleetTrace

        return StreamingFleetTrace(
            bank, self.tenants(bank), ops, mean_interarrival_ns=40_000.0, seed=seed
        )

    def fleet_kwargs(self) -> Dict[str, object]:
        return self.scale_kwargs()

    def build_system(self, bank, trace, seed):
        from repro.core.builder import build_fleet

        fleet = build_fleet(
            cards=3,
            config=self.config(seed),
            bank=bank,
            policy="affinity",
            queue_depth=64,
            **self.fleet_kwargs(),
        )
        return fleet, trace

    def run(self, system):
        fleet, trace = system
        fleet.run(trace)

    def outcome(self, system):
        fleet, trace = system
        return fleet_outcome(fleet, len(trace))


class FleetHitDefault(FleetHitScale):
    name = "fleet_hit_default"
    why = (
        "same trace shape through plain build_fleet() defaults: the full "
        "transaction-level card path (pci/core/mcu/memory) on every hit"
    )
    ops = 40_000

    def fleet_kwargs(self):
        return {}


class CardReconfigChurn(Shape):
    name = "card_reconfig_churn"
    why = (
        "closed loop, one client, Zipf 0.8 over 13 functions on a 64-frame fabric: the "
        "paper's miss path (ROM, decompress, config port, execute); bypasses fleet and net"
    )
    ops = 2_000

    def build_bank(self):
        from repro.functions.bank import build_default_bank

        bank = build_default_bank()
        # matmul8 raises struct.error on random int16 payloads (see README).
        return bank.subset([name for name in bank.names() if name != "matmul8"])

    def config(self, seed):
        from repro.core.config import CoprocessorConfig

        return CoprocessorConfig(
            fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8,
            codec_name="lz77", seed=seed,
        )

    def make_trace(self, bank, seed, ops):
        from repro.workloads.generators import zipf_trace

        return zipf_trace(bank, ops, skew=0.8, seed=seed)

    def build_system(self, bank, trace, seed):
        from repro.core.builder import build_host_driver

        driver = build_host_driver(config=self.config(seed), bank=bank)
        return {"driver": driver, "bank": bank, "trace": trace, "results": []}

    def run(self, system):
        call = system["driver"].call
        record = system["results"].append
        for request in system["trace"]:
            record(call(request.function, request.payload))

    def outcome(self, system):
        driver = system["driver"]
        bank = system["bank"]
        results = system["results"]
        wrong = sum(
            1
            for request, result in zip(system["trace"], results)
            if result.output != bank.by_name(request.function).behaviour(request.payload)
        )
        latencies = sorted(result.total_ns for result in results)
        stats = driver.coprocessor.stats
        outcome = {
            "offered": len(system["trace"]),
            "arrivals": len(system["trace"]),
            "completed": len(results),
            "rejected": 0,
            "net_failed": 0,
            "expired": 0,
            "wrong_outputs": wrong,
            "mean_ns": sum(latencies) / len(latencies),
            "p50_ns": percentile_of(latencies, 50),
            "p95_ns": percentile_of(latencies, 95),
            "p99_ns": percentile_of(latencies, 99),
            "hit_rate": stats.hit_rate,
            "end_ns": driver.clock.now,
            "digest": "",
            "events": 0,
        }
        outcome.update(card_counters([driver], driver.clock.now))
        return outcome

    def violations(self, outcome):
        if outcome["wrong_outputs"]:
            return [f"{outcome['wrong_outputs']} outputs differ from the software behaviour"]
        return []


class FrontdoorSteady(Shape):
    name = "frontdoor_steady"
    why = (
        "50k requests client, link, gateway, fleet, card, client below the token bucket: "
        "the end-to-end admit path (sim/net/cluster)"
    )
    ops = 50_000
    mean_interarrival_ns = 100_000.0
    observed = False

    def make_trace(self, bank, seed, ops):
        from repro.workloads.multitenant import multi_tenant_trace

        return multi_tenant_trace(
            bank,
            self.tenants(bank),
            length=ops,
            mean_interarrival_ns=self.mean_interarrival_ns,
            seed=seed,
        )

    def build_system(self, bank, trace, seed):
        from repro.core.builder import build_fleet, build_frontdoor
        from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig

        kwargs = self.scale_kwargs()
        if self.observed:
            from repro.obs import Observability

            kwargs["observability"] = Observability()
        fleet = build_fleet(
            cards=2,
            config=self.config(seed),
            bank=bank,
            policy="affinity",
            queue_depth=8,
            **kwargs,
        )
        frontdoor = build_frontdoor(
            fleet,
            seed=seed,
            gateways=2,
            uplink=LinkSpec(latency_ns=20_000.0, loss=0.02, jitter_ns=4_000.0),
            transport=TransportConfig(),
            admission=AdmissionConfig(rate_per_s=14_000.0, burst=8.0),
            priorities={self.tenants(bank)[0].name: 1},
            deadline_ns=30_000_000.0,
        )
        frontdoor.add_population(OpenLoopPopulation(trace))
        return frontdoor, trace

    def run(self, system):
        system[0].run()

    def outcome(self, system):
        frontdoor, trace = system
        return frontdoor_outcome(frontdoor, len(trace))


class FrontdoorOverload(FrontdoorSteady):
    name = "frontdoor_overload"
    why = (
        "same stack at 2.4x the token bucket: shed, retry, dedup, breaker; the net layer "
        "used the other way, so an admit-path gain that costs the retry path shows"
    )
    ops = 40_000
    mean_interarrival_ns = 30_000.0


class FrontdoorTraced(FrontdoorSteady):
    name = "frontdoor_traced"
    why = (
        "frontdoor_steady with Observability() on: the only workload where obs works, "
        "and where tracing switches the hit fast path off"
    )
    ops = 14_000
    observed = True


class FleetControlPlane(Shape):
    name = "fleet_control_plane"
    why = (
        "4 cards under scrub orders, Poisson upsets, one card kill, rebalancing and defrag: "
        "cluster driven by control orders (fpga readback, faults, pci)"
    )
    ops = 10_000
    min_ops = 300

    def make_trace(self, bank, seed, ops):
        from repro.workloads.multitenant import multi_tenant_trace

        return multi_tenant_trace(
            bank, self.tenants(bank), length=ops, mean_interarrival_ns=40_000.0, seed=seed
        )

    def build_system(self, bank, trace, seed):
        from repro.core.builder import build_fleet
        from repro.faults import FaultSpec

        spec = FaultSpec(
            process="poisson",
            upset_rate_per_s=3_000.0,
            card_kill_times_ns=((trace.duration_ns * 0.45, 0),),
            seed=seed,
        )
        fleet = build_fleet(
            cards=4,
            config=self.config(seed),
            bank=bank,
            policy="affinity",
            queue_depth=64,
            fault_tolerance=True,
            scrub_period_ns=60_000.0,
            scrub_frames_per_order=32,
            fault_spec=spec,
            rebalance_period_ns=40_000.0,
            rebalance_min_queue_skew=2,
            defrag_period_ns=200_000.0,
        )
        # Maximal residency skew, so the rebalancer has migrations to plan.
        for name in bank.names():
            fleet.cards[0].driver.preload(name)
        return fleet, trace

    def run(self, system):
        fleet, trace = system
        fleet.run(trace)

    def outcome(self, system):
        fleet, trace = system
        return fleet_outcome(fleet, len(trace))

    def violations(self, outcome):
        # The run must have exercised what the workload exists for.  Whether a
        # heal was needed, and whether an upset landed on a migrated image
        # before it was verified (``migration_byte_diffs``, 1 on 4 of 200
        # seeds) or twice in one frame (``scrub_uncorrectable``), is up to
        # the seed: those are reported as counters, not required.
        return [
            f"{key} = 0"
            for key in ("scrub_corrected", "migrations_completed", "card_failures")
            if not outcome[key]
        ]


class FleetSharded2(Shape):
    name = "fleet_sharded_2"
    why = (
        "run_sharded, 4 cards on 2 worker processes in 100 ms epochs: the only workload "
        "that shows the shard barrier and the parent merge"
    )
    ops = 300_000
    min_ops = 1_000

    def make_trace(self, bank, seed, ops):
        from repro.cluster.sharded import ShardedRunConfig

        wanted = {"stats_mode": "sketch", "hit_fastpath": True, "eager_get": True}
        return ShardedRunConfig(
            total_cards=4,
            requests=ops,
            tenants=3,
            skew=1.2,
            mean_interarrival_ns=40_000.0,
            trace_seed=seed,
            config_seed=seed,
            queue_depth=64,
            epoch_ns=100_000_000.0,
            **offered(ShardedRunConfig, wanted, self.optins_applied),
        )

    def build_system(self, bank, trace, seed):
        # run_sharded builds each shard's fleet inside its worker process.
        return {"config": trace, "result": None}

    def run(self, system):
        from repro.cluster.sharded import run_sharded

        system["result"] = run_sharded(system["config"], shards=2)

    def outcome(self, system):
        result = system["result"]
        stats = result.stats
        p50, p95, p99 = (stats.latency_percentile(p) for p in (50, 95, 99))
        return {
            "offered": system["config"].requests,
            "arrivals": stats.arrivals,
            "completed": stats.completed,
            "rejected": stats.rejected,
            "net_failed": 0,
            "expired": 0,
            "mean_ns": stats.mean_sojourn_ns,
            "p50_ns": p50,
            "p95_ns": p95,
            "p99_ns": p99,
            "hit_rate": stats.hit_rate,
            "end_ns": stats.last_completion_ns,
            "digest": stats.schedule_digest(),
            "events": result.events_dispatched,
            "shard_epochs": result.epochs,
        }

    def single_process_digest(self, config) -> str:
        """Digest of the unsharded twin, which the merge must reproduce."""
        from repro.cluster.sharded import build_single_process_fleet

        fleet, trace = build_single_process_fleet(config)
        return fleet.run(trace).schedule_digest()


SHAPES = (
    FleetHitScale,
    FleetHitDefault,
    CardReconfigChurn,
    FrontdoorSteady,
    FrontdoorOverload,
    FrontdoorTraced,
    FleetControlPlane,
    FleetSharded2,
)


def shape_named(name: str) -> Shape:
    for shape in SHAPES:
        if shape.name == name:
            return shape()
    raise KeyError(f"unknown workload {name!r}; known: {[shape.name for shape in SHAPES]}")


def accounting_violations(outcome: Dict[str, object]) -> List[str]:
    """offered == completed + rejected + failed (+ expired), for every shape."""
    accounted = (
        outcome["completed"] + outcome["rejected"] + outcome["net_failed"] + outcome["expired"]
    )
    problems = []
    if outcome["arrivals"] != outcome["offered"]:
        problems.append(f"arrivals {outcome['arrivals']} != offered {outcome['offered']}")
    if accounted != outcome["offered"]:
        problems.append(f"offered {outcome['offered']} != accounted {accounted}")
    return problems


def failed_ops(outcome: Dict[str, object]) -> int:
    """Simulated operations that did not complete (the modelled system's failures)."""
    return int(outcome["rejected"] + outcome["net_failed"] + outcome["expired"])


__all__ = [
    "SHAPES",
    "Shape",
    "accounting_violations",
    "failed_ops",
    "offered",
    "percentile_of",
    "shape_named",
]
