"""Exact-value fingerprints of every layer, checked with ``==``.

Every simulated time, digest and counter this reproduction computes is
deterministic, so the guard on that property is a file of values and an
equality test, not a rate and a tolerance.  Each section below runs a fixed
scenario (codecs, device, cluster, faults, rebalance, scale, net, obs, check)
and returns its values; ``BENCH_fingerprints.json`` at the repo root holds
them as ``{section: {...}}``::

    PYTHONPATH=src python benchmarks/fingerprints.py --check          # full, ~30 s
    PYTHONPATH=src python benchmarks/fingerprints.py --check --tiny   # tier-1, ~6 s
    PYTHONPATH=src python benchmarks/fingerprints.py                  # rewrite the file

Every section runs twice in the process — cold caches, then warm — and the two
runs must agree (:func:`twice`).  ``--check`` then compares the run with the
committed file in both directions: a changed value, a value the run no longer
produces and a value the file does not hold each fail, by path.  ``--tiny``
skips the 10^6-request ``scale.fleet_1m`` and therefore refuses to write.
Without ``--check`` the file is rewritten: diff it before committing — digests
and simulated times never move; an event count may move alone when the PR
says so.  Speed is not measured here: ``benchmarks/e2e/run.py`` is the perf
ledger and ``--trace 1`` its profiler.
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bitstream.codecs import get_codec  # noqa: E402
from repro.check import Explorer, tiny_scenario_factory  # noqa: E402
from repro.cluster.sharded import (  # noqa: E402
    ShardedRunConfig,
    build_single_process_fleet,
    run_sharded,
)
from repro.core.builder import build_coprocessor, build_fleet, build_frontdoor  # noqa: E402
from repro.core.config import SMALL_CONFIG  # noqa: E402
from repro.faults import FaultInjector, FaultSpec  # noqa: E402
from repro.fpga.executor import NetlistExecutor  # noqa: E402
from repro.functions.bank import build_small_bank  # noqa: E402
from repro.functions.netgen import build_adder_netlist, build_parity_netlist  # noqa: E402
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig  # noqa: E402
from repro.obs import (  # noqa: E402
    Observability,
    SloSpec,
    TailSampler,
    incidents_fingerprint,
    metrics_snapshot_json,
    trace_fingerprint,
)
from repro.workloads.multitenant import (  # noqa: E402
    StreamingFleetTrace,
    default_tenant_mix,
    multi_tenant_trace,
)

BASELINE = REPO_ROOT / "BENCH_fingerprints.json"


# --------------------------------------------------------------- comparison
#: Stands for a leaf one side does not hold (no section reports a string like it).
_ABSENT = "<absent>"


def differences(left, right, path: str) -> list:
    """``path: left != right`` for every leaf at which two nested dicts differ.

    Walks the union of the keys, so a leaf only one side holds is a
    difference too (it prints as ``<absent>`` on the other).
    """
    if isinstance(left, dict) and isinstance(right, dict):
        problems = []
        for key in {**left, **right}:
            below = f"{path}.{key}" if path else key
            problems += differences(left.get(key, _ABSENT), right.get(key, _ABSENT), below)
        return problems
    return [] if left == right else [f"{path}: {left!r} != {right!r}"]


def twice(run, *args) -> dict:
    """Run a section cold then warm; the two runs must report equal values."""
    first, second = run(*args), run(*args)
    problems = differences(first, second, run.__name__)
    if problems:
        raise AssertionError(f"non-deterministic {run.__name__} (cold != warm): {problems}")
    return first


def against_committed(committed: dict, fresh: dict, tiny: bool) -> list:
    """Differences between the committed file and a fresh run, both directions."""
    if tiny:
        scale = {key: value for key, value in committed["scale"].items() if key != "fleet_1m"}
        committed = {**committed, "scale": scale}
    return differences(committed, fresh, "")


# ------------------------------------------------------------------- corpus
def clb_structured(total: int, seed: int = 3) -> bytes:
    """Strided 42-byte CLB records drawn from a 4-pattern pool."""
    rng = random.Random(seed)
    pool = [rng.randrange(1, 1 << 16) for _ in range(4)]
    routing = [0x40 | rng.randrange(0x40) for _ in range(4)]
    records = bytearray()
    for clb in range(-(-total // 42)):
        slot = (clb // 4) % 4
        rec = bytearray(42)
        rec[0:16] = pool[slot].to_bytes(2, "little") * 8  # eight 16-bit LUT masks
        rec[16:42:4] = bytes([routing[slot]]) * 7
        records.extend(rec)
    return bytes(records[:total])


def sparse(total: int, fill: int, seed: int = 2) -> bytes:
    rng = random.Random(seed)
    data = bytearray(total)
    for _ in range(fill):
        data[rng.randrange(total)] = rng.randrange(1, 256)
    return bytes(data)


def _card(seed: int):
    return build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=seed), bank=build_small_bank())


def _fleet(bank, cards: int, seed: int, **options):
    """``build_fleet`` under affinity dispatch at queue depth 8 unless *options* say otherwise."""
    options = {"policy": "affinity", "queue_depth": 8, **options}
    return build_fleet(
        cards=cards, config=SMALL_CONFIG.with_overrides(seed=seed), bank=bank, **options
    )


def _trace(bank, tenants: int, length: int, mean_interarrival_ns: float, seed: int):
    specs = default_tenant_mix(bank, tenants=tenants, skew=1.2)
    return multi_tenant_trace(
        bank, specs, length=length, mean_interarrival_ns=mean_interarrival_ns, seed=seed
    )


def _schedule(fleet, stats) -> dict:
    return {
        "events_dispatched": fleet.simulator.events_dispatched,
        "final_time_ns": fleet.clock.now,
        "completed": stats.completed,
        "rejected": stats.rejected,
    }


# ----------------------------------------------------------------- sections
def codecs() -> dict:
    """Compressed size of a fixed corpus through each codec; must round-trip."""
    clb = clb_structured(64 * 1024)
    mixed = bytearray(sparse(64 * 1024, 6000, seed=5))
    mixed[8192:16384] = random.Random(7).randbytes(8192)
    mixed = bytes(mixed)
    corpus = {
        "huffman": mixed,
        "golomb": mixed,
        "lz77": clb,
        "rle": sparse(64 * 1024, 2000),
        "framediff": clb,
        "symmetry": clb,
    }
    results = {}
    for name, payload in corpus.items():
        codec = get_codec(name)
        blob = codec.compress(payload)
        if codec.decompress(blob) != payload:
            raise AssertionError(f"{name} does not round-trip")
        results[name] = {"payload_bytes": len(payload), "compressed_bytes": len(blob)}
    return results


def device() -> dict:
    """One card: netlist execution, an all-miss reconfig pipeline, a trace replay.

    ``netlist_exec.output_digest`` was committed from outputs the retired
    harness asserted equal to ``ReferenceNetlistExecutor``'s, so equality
    with it carries that comparison (``tests/test_executor_equivalence.py``
    keeps fuzzing it).
    """
    netlists = {
        "adder": build_adder_netlist(16),
        "parity": build_parity_netlist(32),
    }
    rng = random.Random(17)
    digest = hashlib.sha256()
    for netlist in netlists.values():
        executor = NetlistExecutor(netlist)
        for _ in range(8):
            digest.update(executor.run(bytes(rng.randrange(256) for _ in range(4)))[0])
    results: dict = {
        "netlist_exec": {
            **{name: {"luts": netlist.lut_count} for name, netlist in netlists.items()},
            "output_digest": digest.hexdigest()[:16],
        }
    }

    # Every request a miss (evict after execute): request -> mini-OS plan ->
    # ROM fetch -> decompress -> configuration port -> execute.
    copro = _card(7)
    names = copro.bank.names()
    payloads = {
        name: bytes(i % 256 for i in range(copro.bank.by_name(name).spec.input_bytes))
        for name in names
    }
    for _ in range(1 + 40):  # the committed values include one round "requests" leaves out
        for name in names:
            copro.execute(name, payloads[name])
            copro.evict(name)
    results["reconfig_pipeline"] = {
        "requests": 40 * len(names),
        "functions": len(names),
        "misses": copro.stats.misses,
        "final_time_ns": copro.clock.now,
    }

    copro = _card(7)
    trace_rng = random.Random(23)
    digest = hashlib.sha256()
    for _ in range(160):
        name = names[trace_rng.randrange(len(names))]
        digest.update(copro.execute(name, payloads[name]).output)
    results["trace_replay"] = {
        "requests": 160,
        "hits": copro.mcu.minios.stats.hits,
        "misses": copro.mcu.minios.stats.misses,
        "final_time_ns": copro.clock.now,
        "output_digest": digest.hexdigest()[:16],
    }
    return results


def cluster() -> dict:
    """A 3-card fleet: one multi-tenant trace under affinity and round-robin."""
    bank = build_small_bank()
    trace = _trace(bank, tenants=3, length=240, mean_interarrival_ns=40_000.0, seed=11)
    results: dict = {}
    for policy in ("affinity", "round_robin"):
        fleet = _fleet(bank, cards=3, seed=11, policy=policy)
        stats = fleet.run(trace)
        results[policy] = {
            "cards": 3,
            "requests": 240,
            **_schedule(fleet, stats),
            "hits": stats.hits,
            "schedule_digest": stats.schedule_digest()[:16],
        }
    # Miss counts are comparable only when both policies completed the same
    # requests; a rejected request would pass for an avoided reconfiguration.
    misses = {policy: entry["completed"] - entry["hits"] for policy, entry in results.items()}
    same_work = results["round_robin"]["completed"] == results["affinity"]["completed"]
    results["reconfigs_avoided_by_affinity"] = (
        misses["round_robin"] - misses["affinity"] if same_work else None
    )
    return results


def faults() -> dict:
    """A scrub sweep over seeded upsets, and a fleet under upsets + scrub + one kill."""
    copro = _card(19)
    copro.enable_fault_protection()
    copro.preload("crc32")
    copro.preload("adder8")
    injector = FaultInjector(FaultSpec(process="targeted", seed=19))
    scrubber = copro.scrubber
    for _ in range(6):
        for _ in range(24):
            injector.upset_memory(copro.device.memory)
        scrubber.scrub_pass()
    scrub_sweep = {
        "scrub_rounds": 6,
        "upsets_per_round": 24,
        "frames_checked": scrubber.stats.frames_checked,
        "detected": scrubber.stats.detected,
        "corrected": scrubber.stats.corrected,
        "uncorrectable": scrubber.stats.uncorrectable,
        "final_time_ns": copro.clock.now,
    }

    bank = build_small_bank()
    trace = _trace(bank, tenants=2, length=80, mean_interarrival_ns=4_000.0, seed=19)
    fleet = _fleet(
        bank,
        cards=2,
        seed=19,
        fault_tolerance=True,
        scrub_period_ns=60_000.0,
        scrub_frames_per_order=32,
        fault_spec=FaultSpec(
            process="targeted",
            upset_rate_per_s=3_000.0,
            card_kill_times_ns=((trace.duration_ns * 0.45, 0),),
            seed=19,
        ),
    )
    stats = fleet.run(trace)
    summary = fleet.fault_summary()
    fault_fleet = {
        "cards": 2,
        "requests": 80,
        **_schedule(fleet, stats),
        "failovers": stats.failovers,
        "card_failures": stats.card_failures,
        "hazard_completions": stats.hazard_completions,
        "scrub_detected": summary["scrub_detected"],
        "scrub_corrected": summary["scrub_corrected"],
        "schedule_digest": stats.schedule_digest()[:16],
    }
    return {"scrub_sweep": scrub_sweep, "fault_fleet": fault_fleet}


def rebalance() -> dict:
    """Defrag of a repeatedly fragmented card, and a fleet rebalancing off card 0."""
    copro = _card(23)
    copro.enable_defrag()
    names = copro.bank.names()
    cycles = []
    for _ in range(3):
        # Fragment: fill the fabric, then punch holes between residents.
        for name in names:
            copro.preload(name)
        for name in names[::2]:
            copro.evict(name)
        before = copro.defragmenter.fragmentation()
        result = copro.defrag()
        cycles.append((before, result, copro.defragmenter.fragmentation()))
        for name in names[1::2]:
            copro.evict(name)
    defrag_sweep = {
        "defrag_cycles": 3,
        "moves": sum(result.moves for _, result, _ in cycles),
        "frames_moved": sum(result.frames_moved for _, result, _ in cycles),
        "frag_before_first": round(cycles[0][0], 6),
        "frag_after_last": round(cycles[-1][2], 6),
        "final_time_ns": copro.clock.now,
    }

    bank = build_small_bank()
    trace = _trace(bank, tenants=2, length=120, mean_interarrival_ns=5_000.0, seed=23)
    fleet = _fleet(
        bank, cards=3, seed=23, rebalance_period_ns=40_000.0, rebalance_min_queue_skew=6
    )
    for name in bank.names():  # maximal residency skew: everything on card 0
        fleet.cards[0].driver.preload(name)
    stats = fleet.run(trace)
    summary = fleet.rebalance_summary()
    rebalance_fleet = {
        "cards": 3,
        "requests": 120,
        **_schedule(fleet, stats),
        "migration_orders": summary["migration_orders"],
        "migrations_completed": summary["migrations_completed"],
        "migrations_failed": summary["migrations_failed"],
        "migration_byte_diffs": summary["migration_byte_diffs"],
        "schedule_digest": stats.schedule_digest()[:16],
    }
    return {"defrag_sweep": defrag_sweep, "rebalance_fleet": rebalance_fleet}


def scale(tiny: bool) -> dict:
    """The streaming scale configuration at 20k and 10^6 requests, and a 2-shard run.

    The scale configuration differs from ``build_fleet()`` defaults in
    ``stats_mode="sketch"`` and ``admission_batch=32`` only.  ``tiny`` skips
    ``fleet_1m``; ``sharded`` keeps its size so ``digest_match`` (the merged
    digest equals the single-process digest) is always checked.
    """
    bank = build_small_bank()
    specs = default_tenant_mix(bank, tenants=3, skew=1.2)

    def streaming(requests: int) -> dict:
        fleet = _fleet(
            bank, cards=3, seed=11, queue_depth=64, stats_mode="sketch", admission_batch=32
        )
        stats = fleet.run(
            StreamingFleetTrace(bank, specs, requests, mean_interarrival_ns=40_000.0, seed=11)
        )
        return {
            "requests": requests,
            "cards": 3,
            "admission_batch": 32,
            **_schedule(fleet, stats),
            "events_per_request": round(fleet.simulator.events_dispatched / requests, 4),
            "schedule_digest": stats.schedule_digest()[:16],
            "sketch_buckets": stats._fleet_sojourn.bucket_count,
            "sojourn_p50_ns": round(stats.latency_percentile(50), 3),
            "sojourn_p95_ns": round(stats.latency_percentile(95), 3),
            "sojourn_p99_ns": round(stats.latency_percentile(99), 3),
        }

    results = {"tiny": streaming(20_000)}
    if not tiny:
        results["fleet_1m"] = streaming(1_000_000)

    config = ShardedRunConfig(requests=40_000, epoch_ns=100_000_000)
    single_fleet, single_trace = build_single_process_fleet(config)
    single_digest = single_fleet.run(single_trace).schedule_digest()
    sharded = run_sharded(config, shards=2)
    results["sharded"] = {
        "requests": config.requests,
        "total_cards": config.total_cards,
        "shards": 2,
        "epochs": sharded.epochs,
        "completed": sharded.stats.completed,
        "rejected": sharded.stats.rejected,
        "schedule_digest": sharded.stats.schedule_digest()[:16],
        "digest_match": sharded.stats.schedule_digest() == single_digest,
    }
    return results


_FRONTDOOR_SIZE = {"cards": 2, "gateways": 2, "requests": 200}


def _run_frontdoor(observability=None, slos=None):
    """The ``net`` and ``obs`` workload: ``_FRONTDOOR_SIZE`` behind 2% lossy links."""
    bank = build_small_bank()
    specs = default_tenant_mix(bank, tenants=3, skew=1.2)
    cards, gateways, requests = _FRONTDOOR_SIZE.values()
    trace = multi_tenant_trace(bank, specs, length=requests, mean_interarrival_ns=30_000.0, seed=23)
    frontdoor = build_frontdoor(
        _fleet(bank, cards=cards, seed=23, observability=observability),
        seed=23,
        gateways=gateways,
        uplink=LinkSpec(latency_ns=20_000.0, loss=0.02, jitter_ns=4_000.0),
        transport=TransportConfig(),
        admission=AdmissionConfig(rate_per_s=14_000.0, burst=8.0),
        priorities={specs[0].name: 1},
        deadline_ns=30_000_000.0,
        slos=slos,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    return frontdoor, frontdoor.run()


def net() -> dict:
    """The whole front door: clients, lossy links, admission, retrying transport."""
    frontdoor, stats = _run_frontdoor()
    return {
        "frontdoor": {
            **_FRONTDOOR_SIZE,
            "events_dispatched": frontdoor.fleet.simulator.events_dispatched,
            "final_time_ns": frontdoor.fleet.clock.now,
            "net_requests": stats.net_requests,
            "net_completed": stats.net_completed,
            "net_failed": stats.net_failed,
            "net_retries": stats.net_retries,
            "shed": stats.shed_total,
            "expired": stats.expired,
            "duplicates_served": stats.duplicates_served,
            "packets_lost": frontdoor.link_summary()["lost"],
            "schedule_digest": stats.schedule_digest()[:16],
        }
    }


def obs() -> dict:
    """The ``net`` workload untraced, traced, and traced with SLOs + tail.

    All three schedule digests must be equal: the stack observes without
    perturbing (no kernel events, no RNG draws).  ``replays`` and
    ``span_entries`` are exact: tracing must not push hits back onto the full
    card model, and a traced serve is one device reference, not one span per
    device event.
    """
    baseline_digest = _run_frontdoor()[1].schedule_digest()

    def unperturbed(stats, what: str) -> bool:
        same = stats.schedule_digest() == baseline_digest
        if not same:
            raise AssertionError(f"{what} perturbed the schedule")
        return same

    tracing = Observability()
    frontdoor, traced_stats = _run_frontdoor(tracing)
    spans = tracing.spans
    replays = sum(card.memo.replays for card in frontdoor.fleet.cards)

    burn = dict(
        source="net", fast_ns=500_000.0, slow_ns=2_000_000.0, burn_threshold=2.0, min_events=5
    )
    slos = [
        SloSpec.availability("net.availability", objective=0.95, **burn),
        SloSpec.latency("net.latency.p95", threshold_ns=400_000.0, objective=0.9, **burn),
    ]
    judged = Observability(tail=TailSampler(slow_ns=400_000.0))
    _, judged_stats = _run_frontdoor(judged, slos=slos)
    tail = judged.tail.summary()
    return {
        "tracing": {
            **_FRONTDOOR_SIZE,
            "schedule_digest": baseline_digest[:16],
            "digest_identical_when_on": unperturbed(traced_stats, "enabled tracing"),
            "spans": len(spans),
            "spans_dropped": tracing.tracer.dropped,
            "trace_roots": sum(1 for span in spans if span.parent_id is None),
            "trace_fingerprint": trace_fingerprint(spans)[:16],
            "metrics_snapshot_sha": hashlib.sha256(
                metrics_snapshot_json(tracing.registry).encode()
            ).hexdigest()[:16],
            "replays": replays,
            "replay_share": round(replays / _FRONTDOOR_SIZE["requests"], 4),
            "span_entries": len(spans.entries),
        },
        "slo": {
            "digest_identical_with_slos": unperturbed(judged_stats, "SLOs + tail sampling"),
            "alerts": len(judged.alerts),
            "incidents": len(judged.incidents),
            "incidents_fingerprint": incidents_fingerprint(judged.recorder),
            "tail_retained_traces": tail["retained_traces"],
            "tail_retained_spans": tail["retained_spans"],
            "tail_discarded_traces": tail["discarded_traces"],
        },
    }


def check() -> dict:
    """Bounded schedule exploration of the migrate+scrub+defrag control plane.

    ``repro.check``'s DFS (110 schedules, depth 24, branch 3) plus a seeded
    random sample, the invariant pack asserted after every schedule.  The
    values pin the exploration itself — schedule count, distinct outcome
    digests (1 = the control plane is schedule-insensitive), the tree's
    shape, a digest over every outcome — so a change to kernel tie-breaks or
    control-plane ordering shows as a changed exploration.
    """
    explorer = Explorer(tiny_scenario_factory(), max_depth=24, max_branch=3, max_schedules=110)
    report = explorer.explore()
    sample = explorer.sample(schedules=10, seed=1)
    if report.violations or sample.violations:
        seeds = [trace.seed() for trace in report.violations + sample.violations]
        raise AssertionError(f"invariant violations under schedules {seeds}")
    for trace in report.highest_branching(3):
        explorer.replay(trace)  # raises if the recorded digest diverges
    digests = sorted({trace.digest for trace in report.traces + sample.traces})
    root = report.traces[0]
    return {
        "explored": {
            "schedules": report.schedules_run,
            "distinct_choice_sequences": len({trace.choices for trace in report.traces}),
            "distinct_digests": report.distinct_digests,
            "violations": len(report.violations),
            "truncated": report.truncated,
            "root_depth": root.depth,
            "root_max_branching": root.max_branching,
            "outcome_sha": hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16],
        },
        "sampled": {
            "schedules": sample.schedules_run,
            "distinct_digests": sample.distinct_digests,
            "violations": len(sample.violations),
            "max_depth_reached": max(trace.depth for trace in sample.traces),
        },
    }


def run_all(tiny: bool) -> dict:
    sections = (codecs, device, cluster, faults, rebalance, scale, net, obs, check)
    return {
        section.__name__: twice(section, tiny) if section is scale else twice(section)
        for section in sections
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help=f"compare with {BASELINE.name}; do not rewrite it"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="skip the 10^6-request scale.fleet_1m (--check only)"
    )
    args = parser.parse_args(argv)
    if args.tiny and not args.check:
        parser.error(f"--tiny skips scale.fleet_1m; refusing to write {BASELINE.name} without it")
    fresh = run_all(args.tiny)
    if not args.check:
        BASELINE.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {BASELINE.name}: diff it before committing")
        return 0
    problems = against_committed(json.loads(BASELINE.read_text()), fresh, args.tiny)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"FINGERPRINT CHECK FAILED: {len(problems)} committed != fresh", file=sys.stderr)
        return 1
    print(f"fingerprint check OK ({'tiny' if args.tiny else 'full'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
