"""Schedule-space exploration by stateless re-execution.

The :class:`Explorer` treats a scenario as a deterministic function of its
schedule-choice sequence: re-running the scenario under
``ScriptedPolicy(prefix)`` replays the first ``len(prefix)`` tie-break
points verbatim (everything before a choice point is fully determined by
the choices already made) and takes the default branch afterwards, while
recording the ready-set width at every point it passes.  That record is the
frontier: each run exposes its untaken siblings
(``choices[:i] + (alt,)`` for every ``alt`` the branch bound admits), and
DFS over those prefixes enumerates the schedule tree without ever
snapshotting simulator state — the simsched recipe, adapted to the kernel's
same-time ready sets.

Exploration is bounded three ways (schedule trees are exponential):

* ``max_schedules`` — total scenario executions,
* ``max_depth`` — choice points past this index are never branched
  (only replayed),
* ``max_branch`` — at most this many alternatives per choice point.

Seeded random *sampling* (:meth:`Explorer.sample`) complements DFS: DFS is
exhaustive near the root, sampling reaches deep interleavings DFS would
only hit after exhausting shallower ones.  Both produce the same artifact —
a replayable :class:`~repro.check.trace.ScheduleTrace` per schedule, with
the invariant pack's verdict attached — and any violating trace converts
into a one-line regression seed via ``trace.seed()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.check.invariants import check_invariants
from repro.check.trace import ScheduleTrace
from repro.sim.schedule import RandomTieBreakPolicy, ScriptedPolicy

#: A scenario: policy in, completed :class:`~repro.check.scenarios.
#: ScenarioRun` out.  Must be deterministic given the policy's choices.
Scenario = Callable


@dataclass
class ExplorationReport:
    """Everything one exploration produced."""

    #: Every executed schedule, in execution order.
    traces: List[ScheduleTrace] = field(default_factory=list)
    #: The subset of traces whose invariant check failed.
    violations: List[ScheduleTrace] = field(default_factory=list)
    #: True when the frontier still held unexplored prefixes at the
    #: ``max_schedules`` bound (coverage is partial, not exhausted).
    truncated: bool = False

    @property
    def schedules_run(self) -> int:
        return len(self.traces)

    @property
    def distinct_digests(self) -> int:
        """How many observably different outcomes the schedules produced."""
        return len({trace.digest for trace in self.traces})

    def highest_branching(self, count: int = 3) -> List[ScheduleTrace]:
        """The *count* traces with the widest ready sets (regression picks)."""
        ranked = sorted(
            self.traces, key=lambda t: (t.max_branching, t.depth), reverse=True
        )
        return ranked[:count]


class Explorer:
    """Bounded DFS + seeded sampling over a scenario's schedule space."""

    def __init__(
        self,
        scenario: Scenario,
        max_depth: int = 64,
        max_branch: int = 4,
        max_schedules: int = 200,
    ) -> None:
        if max_depth < 0 or max_branch < 1 or max_schedules < 1:
            raise ValueError("exploration bounds must be positive")
        self.scenario = scenario
        self.max_depth = max_depth
        self.max_branch = max_branch
        self.max_schedules = max_schedules

    # ------------------------------------------------------------ primitives
    def run_prefix(self, prefix: Tuple[int, ...] = ()) -> ScheduleTrace:
        """Execute the scenario under *prefix* and record the full trace."""
        policy = ScriptedPolicy(prefix)
        run = self.scenario(policy)
        return ScheduleTrace(
            choices=tuple(policy.choices),
            branching=tuple(policy.branching),
            digest=run.digest,
            violations=tuple(check_invariants(run.fleet, run.trace_length)),
        )

    def replay(self, trace: ScheduleTrace) -> ScheduleTrace:
        """Re-execute a recorded trace; the regression-seed entry point.

        Runs the scenario under ``ScriptedPolicy(trace.choices)`` and
        returns the fresh trace.  When the input carries a digest, replay
        verifies reproduction and raises ``AssertionError`` on mismatch —
        a trace that stops reproducing means the scenario changed out from
        under its pinned schedule.
        """
        replayed = self.run_prefix(trace.choices)
        if trace.digest and replayed.digest != trace.digest:
            raise AssertionError(
                f"replay diverged: digest {replayed.digest!r} != recorded "
                f"{trace.digest!r} for seed {trace.seed()!r}"
            )
        return replayed

    # ----------------------------------------------------------- exploration
    def explore(self) -> ExplorationReport:
        """Bounded DFS from the default schedule; returns every trace run."""
        report = ExplorationReport()
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            if len(report.traces) >= self.max_schedules:
                report.truncated = True
                break
            prefix = stack.pop()
            trace = self.run_prefix(prefix)
            report.traces.append(trace)
            if trace.violations:
                report.violations.append(trace)
            # Expand untaken siblings of every choice point this run opened
            # (points before len(prefix) were expanded by an ancestor run).
            # Pushed deepest-first so the LIFO frontier explores near the
            # current schedule before backtracking — proper DFS order.
            for point in range(len(prefix), min(trace.depth, self.max_depth)):
                chosen = trace.choices[point]
                width = min(trace.branching[point], self.max_branch)
                for alternative in range(width - 1, chosen, -1):
                    stack.append(trace.choices[:point] + (alternative,))
        return report

    def sample(self, schedules: int, seed: int = 0) -> ExplorationReport:
        """Run *schedules* seeded-random tie-break schedules.

        Each sampled run records its choices, so every returned trace is
        scripted-replayable even though the schedule was chosen randomly.
        """
        report = ExplorationReport()
        for index in range(schedules):
            policy = RandomTieBreakPolicy(seed=seed + index)
            run = self.scenario(policy)
            trace = ScheduleTrace(
                choices=tuple(policy.choices),
                branching=tuple(policy.branching),
                digest=run.digest,
                violations=tuple(check_invariants(run.fleet, run.trace_length)),
            )
            report.traces.append(trace)
            if trace.violations:
                report.violations.append(trace)
        return report
