"""The perf ledger: one command, eight workloads, every metric by name.

Driver form (the contract in ``BENCHMARK.json``; one workload, one JSON line)::

    python3 benchmarks/e2e/run.py --workload fleet_hit_scale --seed 11 --seconds 8 --trace 0

Ledger form (all workloads, repetitions in fresh processes, a traced pass each)::

    python3 benchmarks/e2e/run.py [--workloads a b ...] [--seed 11] [--reps 5]
                                  [--scale 1.0] [--seconds 8] [--out ledger.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json

This process never imports the package under measurement: every measurement
runs in a ``worker.py`` subprocess, so set-up is cold, peak memory belongs to
one workload, and the source tree measured is ``<checkout>/src`` and no other.
End-to-end metrics come from untraced runs, per-layer metrics from a separate
traced run; host time and simulated time are separate metrics throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare as compare_mode  # noqa: E402
import shapes  # noqa: E402
from worker import REFERENCE_ITERATIONS, REFERENCE_NOMINAL_S  # noqa: E402

#: A worker must leave the 180 s a run is allowed with room to report.
WORKER_TIMEOUT_S = 160
#: Cold set-ups timed per driver run (the timed worker's own is one of them).
SETUPS_PER_RUN = 5
SETUP_SPANS = ("import_s", "bank_build_s", "trace_gen_s", "system_build_s")
SPANS = SETUP_SPANS + ("warmup_s", "run_s", "finalize_s")


class Violation(Exception):
    """A run broke an invariant; the message names the workload."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def ops_for(name: str, scale: float) -> int:
    shape = shapes.shape_named(name)
    return max(shape.min_ops, int(round(shape.ops * scale)))


def spawn(workload: str, seed: int, ops: int, seconds: float, mode: str) -> dict:
    """Run one worker to completion and return what it measured."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"no package to measure: {source / 'repro'} is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Set order decides which layer makes a handful of calls.  Pinning the
    # string hashes removes most of that; object addresses leave a few calls
    # in ten thousand (see CALLS_TOLERANCE in compare.py).
    env["PYTHONHASHSEED"] = "0"
    spec = {"workload": workload, "seed": seed, "ops": ops, "seconds": seconds, "mode": mode}
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise Violation(f"{workload}: {mode} worker raised\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["violations"]:
        raise Violation(f"{workload}: " + "; ".join(result["violations"]))
    return result


def reference_seconds(seconds: float, reference_s: float) -> float:
    """*seconds* on this host, restated for a host at the nominal reference speed."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def setup_seconds(result: dict) -> float:
    """Cold set-up of one worker, in reference seconds."""
    return reference_seconds(sum(result["spans"][span] for span in SETUP_SPANS), result["setup_ref_s"])


# ------------------------------------------------------------------- metrics
def simulated_metrics(outcome: dict) -> Dict[str, float]:
    """Simulated results of the modelled system; exact for a given seed and size.

    The percentiles are per-layer metrics in ``BENCHMARK.json`` (they are
    service-time plateaux that read the same for every seed, which the
    contract forbids for an end-to-end time); the other four are end to end.
    """
    return {
        "sim_served_share": outcome["completed"] / outcome["offered"],
        "sim_mean_ns": outcome["mean_ns"],
        "sim_hit_rate": outcome["hit_rate"],
        "sim_makespan_ns": outcome["end_ns"],
        "sim_p50_ns": outcome["p50_ns"],
        "sim_p95_ns": outcome["p95_ns"],
        "sim_p99_ns": outcome["p99_ns"],
    }


def host_rates(ops: int, runs: List[dict]) -> Dict[str, float]:
    """Host speed of timed *runs* of *ops* operations each (medians over the runs).

    ``ops_per_ref_s`` and ``cpu_ref_us_per_op`` are in reference seconds and
    are the end-to-end metrics; ``host.*`` are the same runs in raw seconds.
    """
    return {
        "ops_per_ref_s": statistics.median(
            ops / reference_seconds(run["wall_s"], run["ref_wall_s"]) for run in runs),
        "cpu_ref_us_per_op": statistics.median(
            reference_seconds(run["cpu_s"], run["ref_cpu_s"]) / ops * 1e6 for run in runs),
        "host.ops_per_s": statistics.median(ops / run["wall_s"] for run in runs),
        "host.cpu_us_per_op": statistics.median(run["cpu_s"] / ops * 1e6 for run in runs),
        "host.ref_iters_per_s": statistics.median(REFERENCE_ITERATIONS / run["ref_wall_s"] for run in runs),
    }


def per_layer_metrics(result: dict) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric of one traced worker, split by what it measures:
    ``host`` time (noisy) and ``exact`` counts (equal for equal seed and size)."""
    outcome = result["outcome"]
    ops = result["ops"]
    cache = result["bitstream_cache"]
    events = outcome.get("events", 0)

    def per_op(key: str) -> float:
        return outcome.get(key, 0) / ops

    def ratio(part: str, whole: str) -> float:
        return outcome[part] / outcome[whole] if outcome.get(whole) else 0.0

    host = {key: value for key, value in result["fold"].items() if key.endswith(".self_share")}
    host["trace_overhead_x"] = result["trace_overhead_x"]
    host.update(host_rates(ops, [result["plain"]]))
    host["sim.host_ns_per_event"] = result["spans"]["run_s"] / events * 1e9 if events else 0.0
    for span in SPANS:
        host[f"span.{span}"] = result["spans"][span]
    host.update(result["layer_calls"])

    exact = {key: value for key, value in result["fold"].items() if key.endswith(".calls_per_op")}
    exact.update(
        {
            "sim.events_per_op": events / ops,
            # Front-door shapes report the fleet's own refusals separately
            # from the client's view of them.
            "cluster.rejected_share": per_op("fleet_rejected" if "fleet_rejected" in outcome else "rejected"),
            "cluster.fastpath_replay_share": per_op("replays"),
            "cluster.failovers": outcome.get("failovers", 0),
            "cluster.heals_completed": outcome.get("heals_completed", 0),
            "cluster.migrations_completed": outcome.get("migrations_completed", 0),
            "cluster.migration_byte_diffs": outcome.get("migration_byte_diffs", 0),
            "cluster.shard_epochs": outcome.get("shard_epochs", 0),
            "cluster.shard_digest_match": outcome.get("shard_digest_match", 0),
            "core.reconfigs_per_op": per_op("reconfigs"),
            "pci.transactions_per_op": per_op("pci_transactions"),
            "pci.bytes_per_op": per_op("pci_bytes"),
            "pci.sim_busy_share": outcome.get("pci_busy_share", 0.0),
            "mcu.evictions_per_op": per_op("evictions"),
            "mcu.frames_evicted_per_op": per_op("frames_evicted"),
            "memory.rom_reads_per_op": per_op("rom_reads"),
            "memory.rom_bytes_per_op": per_op("rom_bytes"),
            # The process-wide rendered/compressed image memo (host side, but a count).
            "bitstream.cache_hit_rate": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "bitstream.compressed_ratio": ratio("stored_bytes", "raw_bytes"),
            "fpga.frames_written_per_op": per_op("frames_written"),
            "fpga.config_bytes_per_op": per_op("config_bytes"),
            "fpga.executions_per_op": per_op("executions"),
            "fpga.port_sim_busy_share": outcome.get("port_busy_share", 0.0),
            "faults.scrub_frames_per_op": per_op("scrub_frames"),
            "faults.scrub_corrected": outcome.get("scrub_corrected", 0),
            "faults.scrub_uncorrectable": outcome.get("scrub_uncorrectable", 0),
            "faults.silent_corruption_rate": outcome.get("silent_corruption_rate", 0.0),
            "net.retries_per_op": per_op("retries"),
            "net.shed_per_op": per_op("shed"),
            "net.packets_lost_share": ratio("packets_lost", "packets_offered"),
            "net.duplicates_served": outcome.get("duplicates_served", 0),
            "net.expired": outcome.get("fleet_expired", 0),
            "obs.spans_per_op": per_op("spans"),
            "obs.spans_dropped": outcome.get("spans_dropped", 0),
        }
    )
    return {"host": host, "exact": exact}


# ---------------------------------------------------------------- measuring
def measure_end_to_end(name: str, seed: int, scale: float, seconds: float, reps: int, setups: int) -> dict:
    """*reps* timed workers (fresh process each), then set-up-only workers
    until *setups* cold set-ups have been timed."""
    ops = ops_for(name, scale)
    timed = [spawn(name, seed, ops, seconds, "timed") for _ in range(reps)]
    for other in timed[1:]:
        if other["outcome"] != timed[0]["outcome"]:
            raise Violation(f"{name}: repetitions in fresh processes disagree")
    cold = [setup_seconds(result) for result in timed]
    while len(cold) < setups:
        cold.append(setup_seconds(spawn(name, seed, ops, seconds, "setup")))
    samples: Dict[str, List[float]] = {"setup_s": cold}
    for result in timed:
        rates = dict(host_rates(ops, result["runs"]), peak_rss_mb=result["peak_rss_kb"] / 1024.0)
        for metric, value in rates.items():
            samples.setdefault(metric, []).append(value)
    outcome = timed[0]["outcome"]
    simulated = simulated_metrics(outcome)
    values = {metric: summarise(series) for metric, series in samples.items()}
    values.update({metric: summarise([value]) for metric, value in simulated.items()})
    return {
        "ops": ops,
        "attempted": sum(ops * len(result["runs"]) for result in timed),
        "simulated_refusals": shapes.failed_ops(outcome),
        "values": values,
        "simulated": simulated,
        "digest": outcome["digest"],
        "optins_applied": timed[0]["optins_applied"],
    }


def measure_per_layer(name: str, seed: int, scale: float, seconds: float) -> dict:
    result = spawn(name, seed, ops_for(name, scale), seconds, "traced")
    split = per_layer_metrics(result)
    split["exact"].update(simulated_metrics(result["outcome"]))
    return {
        "ops": result["ops"],
        "values": {key: {"median": value} for key, value in {**split["host"], **split["exact"]}.items()},
        "exact": sorted(split["exact"]),
        "digest": result["outcome"]["digest"],
    }


def summarise(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def manifest(args, workloads: List[str]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "reps": args.reps,
        "workloads": workloads,
    }


def print_metrics(title: str, values: Dict[str, dict], declared: List[dict]) -> None:
    print(f"-- {title}")
    for entry in declared:
        row = values[entry["name"]]
        spread = f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}" if "q1" in row else ""
        print(f"{entry['name']:<36} {row['median']:>16.6g} {entry['unit']:<6} ({entry['better']} is better){spread}")


# ---------------------------------------------------------------------- modes
def declared(contract: dict, section: str, values: Dict[str, dict]) -> Dict[str, dict]:
    """The metrics *section* of ``BENCHMARK.json`` names, in its order."""
    names = [entry["name"] for entry in contract[section]]
    missing = [name for name in names if name not in values]
    if missing:
        raise SystemExit(f"BENCHMARK.json {section} names metrics the runner does not emit: {missing}")
    return {name: values[name] for name in names}


def driver_run(args, contract: dict) -> int:
    """One workload, one result line: the form the contract's driver calls."""
    name = args.workload
    if name not in [entry["name"] for entry in contract["workloads"]]:
        raise SystemExit(f"unknown workload {name!r}")
    if args.trace:
        section = "per_layer"
        measured = measure_per_layer(name, args.seed, args.scale, args.seconds)
        attempted = measured["ops"]
    else:
        section = "end_to_end"
        measured = measure_end_to_end(name, args.seed, args.scale, args.seconds, reps=1, setups=SETUPS_PER_RUN)
        attempted = measured["attempted"]
        run_manifest = dict(manifest(args, [name]), digest=measured["digest"][:16],
                            optins_applied=measured["optins_applied"],
                            simulated_refusals=measured["simulated_refusals"])
        print(f"manifest: {json.dumps(run_manifest)}")
    values = declared(contract, section, measured["values"])
    print_metrics(f"{name} ({section}, {attempted} operations)", values, contract[section])
    units = {entry["name"]: entry["unit"] for entry in contract[section]}
    # ``failed`` counts operations the simulator got wrong, and a wrong one
    # raises Violation before this line; requests the *modelled* system
    # refuses are results, reported as sim_served_share.
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {key: {"value": row["median"], "unit": units[key]} for key, row in values.items()},
    }))
    return 0


def ledger_run(args, contract: dict) -> int:
    """All workloads: repetitions, a traced pass each, one ledger file."""
    known = [entry["name"] for entry in contract["workloads"]]
    names = args.workloads or known
    ledger = {"manifest": manifest(args, names), "workloads": {}}
    for name in names:
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; known: {known}")
        measured = measure_end_to_end(name, args.seed, args.scale, args.seconds, args.reps, setups=args.reps)
        traced = measure_per_layer(name, args.seed, args.scale, args.seconds)
        end_to_end = declared(contract, "end_to_end", measured["values"])
        per_layer = declared(contract, "per_layer", traced["values"])
        print_metrics(f"{name} (end_to_end, {measured['ops']} operations, untraced)", end_to_end, contract["end_to_end"])
        print_metrics(f"{name} (per_layer, {traced['ops']} operations, traced)", per_layer, contract["per_layer"])
        ledger["workloads"][name] = {
            "ops": measured["ops"],
            "traced_ops": traced["ops"],
            "optins_applied": measured["optins_applied"],
            "digest": measured["digest"],
            "traced_digest": traced["digest"],
            "simulated_refusals": measured["simulated_refusals"],
            "end_to_end": end_to_end,
            "simulated": measured["simulated"],
            "per_layer": {key: row["median"] for key, row in per_layer.items()},
            "per_layer_exact": [key for key in traced["exact"] if key in per_layer],
        }
    print(f"manifest: {json.dumps(ledger['manifest'])}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(ledger, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="driver form: measure this one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--workloads", nargs="*", help="ledger form: subset of workloads (default all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="timed work per worker (default: run_seconds)")
    parser.add_argument("--reps", type=int, default=5, help="ledger form: timed workers per workload")
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every workload's operations")
    parser.add_argument("--out", help="ledger form: write the ledger here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.compare:
        return compare_mode.main(args.compare[0], args.compare[1], contract)
    try:
        if args.workload:
            return driver_run(args, contract)
        return ledger_run(args, contract)
    except Violation as violation:
        print(f"VIOLATION {violation}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
