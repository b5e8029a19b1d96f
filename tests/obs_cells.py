"""Two traced cells the observability determinism tests run in a fresh process.

* :func:`traced_frontdoor` — E12's overload cell with token-bucket shedding:
  three cards, two gateways, a lossy jittered uplink, every request traced.
* :func:`kill_drill` — E10's kill drill at its smallest: two cards lose card 0
  mid-trace under availability and latency SLOs, with tail sampling.

Both are pure functions of their arguments, so a second interpreter must
reproduce every span, metric and incident byte for byte.
"""

from __future__ import annotations

from repro import build_fleet, build_frontdoor
from repro.core.config import CoprocessorConfig
from repro.faults import FaultSpec
from repro.functions.bank import build_default_bank
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability, SloSpec, TailSampler
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

#: One request per ~5.5us is the measured 3-card capacity (E12's 1.0x).
CAPACITY_INTERARRIVAL_NS = 5_500.0
DRILL_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32", "adder8", "popcount8"]


def _config(seed: int) -> CoprocessorConfig:
    return CoprocessorConfig(fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=seed)


def traced_frontdoor(requests: int, overload: float, loss: float):
    """The E12 overload cell with shedding, run traced; ``(frontdoor, observability)``."""
    seed, working_set, cards = 2012, DRILL_SET[:6], 3
    bank = build_default_bank()
    subset = bank.subset(working_set)
    tenants = default_tenant_mix(subset, tenants=4, skew=1.2)
    trace = multi_tenant_trace(
        subset,
        tenants,
        length=requests,
        mean_interarrival_ns=CAPACITY_INTERARRIVAL_NS / overload,
        seed=seed,
    )
    observability = Observability()
    fleet = build_fleet(
        cards=cards,
        config=_config(seed),
        bank=bank,
        functions=working_set,
        policy="affinity",
        queue_depth=256,
        observability=observability,
    )
    for index, name in enumerate(working_set):
        fleet.cards[index % cards].driver.preload(name)
    frontdoor = build_frontdoor(
        fleet,
        seed=seed,
        gateways=2,
        uplink=LinkSpec(latency_ns=20_000.0, loss=loss, jitter_ns=4_000.0),
        transport=TransportConfig(
            max_retries=3,
            per_hop_timeout_ns=1_200_000.0,
            backoff_cap_ns=1_000_000.0,
            breaker_threshold=12,
            breaker_open_ns=2_000_000.0,
        ),
        admission=AdmissionConfig(rate_per_s=80_000.0, burst=12.0),
        priorities={tenants[0].name: 1},
        deadline_ns=4_000_000.0,
    )
    frontdoor.add_population(OpenLoopPopulation(trace))
    frontdoor.run()
    return frontdoor, observability


def kill_drill():
    """The E10 kill drill with SLOs and tail sampling; ``(fleet, observability)``."""
    seed = 4
    bank = build_default_bank()
    subset = bank.subset(DRILL_SET)
    trace = multi_tenant_trace(
        subset,
        default_tenant_mix(subset, tenants=4, skew=1.2),
        length=100,
        mean_interarrival_ns=20_000.0,
        seed=seed,
    )
    spec = FaultSpec(
        process="targeted",
        upset_rate_per_s=2_000.0,
        card_kill_times_ns=((trace.duration_ns * 0.35, 0),),
        seed=seed,
    )
    windows = dict(fast_ns=200_000.0, slow_ns=1_000_000.0, min_events=5)
    slos = [
        SloSpec.availability("fleet.availability", objective=0.99, burn_threshold=5.0, **windows),
        SloSpec.latency(
            "fleet.latency.p95", threshold_ns=200_000.0, objective=0.95, burn_threshold=4.0, **windows
        ),
    ]
    observability = Observability(slos=slos, tail=TailSampler(slow_ns=300_000.0))
    fleet = build_fleet(
        cards=2,
        config=_config(seed),
        bank=bank,
        functions=DRILL_SET,
        policy="affinity",
        queue_depth=4,
        fault_tolerance=True,
        scrub_period_ns=100_000.0,
        fault_spec=spec,
        observability=observability,
    )
    fleet.run(trace)
    return fleet, observability
