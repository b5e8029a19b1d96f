#!/usr/bin/env python3
"""The operator's view of two bad days: SLO burn, alerts and flight records.

Everything earlier examples print — counters, percentile tables, traces — is
what an engineer reads *after* deciding something is wrong.  This example
shows the layer that makes that decision: declarative SLOs evaluated over
the simulated clock with fast/slow-window burn-rate alerting, tail-based trace
sampling that keeps the interesting traces, and an incident flight recorder
that snapshots the evidence the moment an alert fires.

Two replays, both byte-deterministic:

1. **E10 kill drill** — the ``fault_drill`` fleet loses a card mid-trace.
   The availability SLO burns through its budget, the alert opens an
   incident, and the flight recorder's timeline shows the kill, the
   failovers, the heal order and the resolution, with the rejected
   requests' traces attached by the tail sampler.

2. **E12 brownout** — E12's overload cell, judged from the client's side of
   the links with ``source="net"`` SLOs, handed to the same
   ``Observability(slos=...)`` as the fleet-source ones.

Per replay it lists the alerts, each incident's correlated timeline and the
tail sampler's retention accounting, and exports the incidents as JSON.  The run's schedule digest is printed
alongside so you can check it against the same run without observability:
SLO evaluation is passive and never perturbs the schedule.

Run with:  python examples/ops_console.py
           python examples/ops_console.py --tiny
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import build_fleet, build_frontdoor
from repro.core.config import CoprocessorConfig
from repro.faults import FaultSpec
from repro.functions.bank import build_default_bank
from repro.net import LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability, SloSpec, TailSampler, incidents_json
from repro.workloads import default_tenant_mix, multi_tenant_trace

SEED = 4
DRILL_SET = [
    "sha1", "crc32", "fir16", "strmatch",
    "bitonic64", "parity32", "adder8", "popcount8",
]
DRILL_CONFIG = CoprocessorConfig(
    fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=SEED
)


def drill_slos():
    """The kill drill's objectives, judged at the fleet dispatch boundary."""
    return [
        SloSpec.availability(
            "fleet.availability",
            objective=0.99,
            fast_ns=200_000.0,
            slow_ns=1_000_000.0,
            burn_threshold=5.0,
            min_events=5,
        ),
        SloSpec.latency(
            "fleet.latency.p95",
            threshold_ns=200_000.0,
            objective=0.95,
            fast_ns=200_000.0,
            slow_ns=1_000_000.0,
            burn_threshold=4.0,
            min_events=5,
        ),
    ]


def run_kill_drill(tiny: bool = False):
    """E10 kill drill with SLOs + tail sampling; returns (fleet, obs)."""
    cards = 2 if tiny else 3
    requests = 100 if tiny else 400
    interarrival_ns = 20_000.0 if tiny else 15_000.0
    queue_depth = 4 if tiny else 6
    kill_fraction = 0.35 if tiny else 0.4
    bank = build_default_bank()
    subset = bank.subset(DRILL_SET)
    trace = multi_tenant_trace(
        subset,
        default_tenant_mix(subset, tenants=4, skew=1.2),
        length=requests,
        mean_interarrival_ns=interarrival_ns,
        seed=SEED,
    )
    kill_at = trace.duration_ns * kill_fraction
    spec = FaultSpec(
        process="targeted",
        upset_rate_per_s=2_000.0,
        card_kill_times_ns=((kill_at, 0),),
        seed=SEED,
    )
    obs = Observability(slos=drill_slos(), tail=TailSampler(slow_ns=300_000.0))
    fleet = build_fleet(
        cards=cards,
        config=DRILL_CONFIG,
        bank=bank,
        functions=DRILL_SET,
        policy="affinity",
        queue_depth=queue_depth,
        fault_tolerance=True,
        scrub_period_ns=100_000.0,
        fault_spec=spec,
        observability=obs,
    )
    fleet.run(trace)
    return fleet, obs


def run_brownout(tiny: bool = False):
    """E12 overload cell judged by net-source SLOs; returns (frontdoor, obs)."""
    requests = 500 if tiny else 1_500
    overload = 3.0
    working_set = DRILL_SET[:6]
    bank = build_default_bank()
    subset = bank.subset(working_set)
    tenants = default_tenant_mix(subset, tenants=4, skew=1.2)
    trace = multi_tenant_trace(
        subset,
        tenants,
        length=requests,
        mean_interarrival_ns=5_500.0 / overload,
        seed=SEED,
    )
    burn = dict(
        source="net", fast_ns=500_000.0, slow_ns=2_000_000.0, burn_threshold=3.0, min_events=10
    )
    slos = [
        SloSpec.availability("net.availability", objective=0.95, **burn),
        SloSpec.latency("net.latency.p95", threshold_ns=400_000.0, objective=0.95, **burn),
    ]
    obs = Observability(slos=slos, tail=TailSampler(slow_ns=500_000.0))
    fleet = build_fleet(
        cards=3,
        config=DRILL_CONFIG,
        bank=bank,
        functions=working_set,
        policy="affinity",
        queue_depth=256,
        observability=obs,
    )
    for index, name in enumerate(working_set):
        fleet.cards[index % 3].driver.preload(name)
    frontdoor = build_frontdoor(
        fleet,
        seed=SEED,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=0.05, jitter_ns=4_000.0),
        transport=TransportConfig(
            max_retries=3,
            per_hop_timeout_ns=300_000.0,
            backoff_cap_ns=1_000_000.0,
            breaker_threshold=12,
            breaker_open_ns=2_000_000.0,
        ),
        deadline_ns=1_000_000.0,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    frontdoor.run()
    return frontdoor, obs


def _describe_event(event) -> str:
    if event["kind"] == "fault":
        extra = ", ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("t_ns", "kind", "fault", "card")
        )
        return f"fault:{event['fault']} {event['card']}" + (f" ({extra})" if extra else "")
    if event["kind"] == "span":
        return f"span:{event['span']} [{event.get('card', '-')}]"
    if event["kind"] == "alert":
        return f"ALERT {event['slo']} burn fast={event['burn_fast']:.1f}"
    return event["kind"]


def _print_incidents(recorder, max_events: int = 12) -> None:
    if not recorder.incidents:
        print("no incidents opened")
        return
    for incident in recorder.incidents:
        closed = (
            f"closed {incident.closed_ns / 1e6:.3f} ms"
            if incident.closed_ns is not None
            else "still open"
        )
        print(
            f"incident #{incident.incident_id}: {incident.slo} "
            f"({incident.window}) opened {incident.opened_ns / 1e6:.3f} ms, "
            f"{closed}; {len(incident.timeline)} timeline events, "
            f"{len(incident.traces)} traces attached"
        )
        shown = incident.timeline[:max_events]
        for event in shown:
            print(f"    {event['t_ns'] / 1e6:9.3f} ms  {_describe_event(event)}")
        hidden = len(incident.timeline) - len(shown)
        if hidden > 0:
            print(f"    ... {hidden} more events")


def _print_tail(tail: TailSampler) -> None:
    summary = tail.summary()
    reasons = ", ".join(
        f"{reason}={count}" for reason, count in sorted(summary["keep_reasons"].items())
    )
    print(
        f"tail sampler: kept {summary['retained_traces']} traces "
        f"({summary['retained_spans']} spans; {reasons}), "
        f"discarded {summary['discarded_traces']}, "
        f"budget-dropped {summary['budget_dropped_traces']}"
    )


def _report(title: str, stats, obs, out_name: str) -> None:
    print(f"=== {title} " + "=" * max(1, 70 - len(title)))
    print(f"schedule digest {stats.schedule_digest()}")
    alerts = obs.alerts
    print(f"{len(alerts)} alert(s) fired:")
    for alert in alerts:
        resolved = (
            f"resolved {alert.resolved_ns / 1e6:.3f} ms"
            if alert.resolved_ns is not None
            else "unresolved at run end"
        )
        print(
            f"  {alert.slo} ({alert.window}) fired {alert.fired_ns / 1e6:.3f} ms "
            f"burn fast/slow {alert.burn_fast:.1f}/{alert.burn_slow:.1f}, {resolved}"
        )
    _print_incidents(obs.recorder)
    _print_tail(obs.tail)
    out_path = Path(tempfile.gettempdir()) / out_name
    out_path.write_text(incidents_json(obs.recorder), encoding="utf-8")
    print(f"flight-recorder JSON written to {out_path}\n")


def main(tiny: bool = False) -> None:
    fleet, obs = run_kill_drill(tiny)
    _report("E10 kill drill", fleet.stats, obs, "incidents_kill_drill.json")
    frontdoor, obs = run_brownout(tiny)
    _report("E12 brownout", frontdoor.fleet.stats, obs, "incidents_brownout.json")


if __name__ == "__main__":
    main(tiny="--tiny" in sys.argv[1:])
