"""``repro.check`` — schedule-space model checking of the control plane.

Determinism makes every test reproducible — and makes every test explore
exactly one interleaving.  This package searches the others: a
:class:`~repro.sim.schedule.SchedulePolicy` turns the kernel's
same-time tie-breaks into explicit choice points, the
:class:`Explorer` enumerates choice sequences by bounded DFS and seeded
random sampling (stateless re-execution, in the spirit of simsched/dPOR),
and the invariant pack asserts after every explored schedule what the
property suites assert after the default one.  A violating schedule
serialises to a one-line :class:`ScheduleTrace` seed that replays exactly.

See the "Model checking the control plane" chapter in docs/architecture.md.
"""

from repro.check.explorer import ExplorationReport, Explorer
from repro.check.invariants import (
    check_counter_conservation,
    check_invariants,
    check_memory_lockstep,
    check_request_conservation,
)
from repro.check.scenarios import ScenarioRun, tiny_control_plane, tiny_scenario_factory
from repro.check.trace import ScheduleTrace

__all__ = [
    "ExplorationReport",
    "Explorer",
    "ScenarioRun",
    "ScheduleTrace",
    "check_counter_conservation",
    "check_invariants",
    "check_memory_lockstep",
    "check_request_conservation",
    "tiny_control_plane",
    "tiny_scenario_factory",
]
