"""Canonical scenarios for schedule exploration.

A *scenario* is a callable taking a
:class:`~repro.sim.schedule.SchedulePolicy` (or ``None``), running a fleet
workload to quiescence under it, and returning a :class:`ScenarioRun`.
Exploration re-executes the scenario once per schedule, so scenarios must be
(a) deterministic given the policy's choices and (b) small — the tiny
control-plane scenario below runs in milliseconds.

The tiny scenario is deliberately the worst case the control plane offers:
the whole working set preloaded on card 0 (maximal residency skew, so the
rebalancer orders migrations), periodic scrub and defrag services on both
cards, healing enabled, and a short two-tenant trace whose zero-delay queue
hand-offs collide with the service timers at shared timestamps — exactly
where same-time ready sets grow past one entry and
schedules branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.builder import build_fleet
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.sim.kernel import Simulator
from repro.sim.schedule import SchedulePolicy
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

#: Cached immutable scenario inputs: the bank memoises compiled netlists and
#: bitstreams, and the trace is a pure value — sharing them across explored
#: schedules is what makes per-schedule re-execution cheap.
_CACHE: dict = {}


@dataclass
class ScenarioRun:
    """One completed scenario execution under one schedule."""

    fleet: object
    stats: object
    trace_length: int

    @property
    def digest(self) -> str:
        """Replay probe: the full fleet fingerprint (events, time, counters,
        completion-stream digest) as a string — two runs took the same
        schedule iff their digests match."""
        return repr(self.fleet.fingerprint())


def _tiny_inputs(length: int, seed: int):
    key = (length, seed)
    cached = _CACHE.get(key)
    if cached is None:
        bank = _CACHE.get("bank")
        if bank is None:
            bank = _CACHE["bank"] = build_small_bank()
        trace = multi_tenant_trace(
            bank,
            default_tenant_mix(bank, tenants=2, skew=1.2),
            length=length,
            mean_interarrival_ns=4_000.0,
            seed=seed,
        )
        cached = _CACHE[key] = (bank, trace)
    return cached


def tiny_control_plane(
    policy: Optional[SchedulePolicy] = None,
    length: int = 16,
    seed: int = 23,
) -> ScenarioRun:
    """Run the tiny migrate+scrub+defrag fleet under *policy* to quiescence."""
    bank, trace = _tiny_inputs(length, seed)
    simulator = Simulator(schedule_policy=policy)
    fleet = build_fleet(
        cards=2,
        config=SMALL_CONFIG.with_overrides(seed=seed),
        bank=bank,
        policy="affinity",
        queue_depth=8,
        simulator=simulator,
        fault_tolerance=True,
        scrub_period_ns=20_000,
        scrub_frames_per_order=8,
        defrag_period_ns=25_000,
        defrag_moves_per_order=1,
        rebalance_period_ns=30_000,
        rebalance_min_queue_skew=2,
        rebalance_min_frame_skew=2,
    )
    # Maximal residency skew: the whole working set on card 0, so the
    # rebalancer has migrations to order while scrub/defrag timers fire.
    for name in bank.names():
        fleet.cards[0].driver.preload(name)
    stats = fleet.run(trace)
    return ScenarioRun(fleet=fleet, stats=stats, trace_length=len(trace))


def tiny_scenario_factory(
    length: int = 16, seed: int = 23
) -> Callable[[Optional[SchedulePolicy]], ScenarioRun]:
    """A parameterised scenario callable for :class:`~repro.check.Explorer`."""

    def scenario(policy: Optional[SchedulePolicy] = None) -> ScenarioRun:
        return tiny_control_plane(policy, length=length, seed=seed)

    return scenario
