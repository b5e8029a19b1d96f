"""The schedule-space model checker: traces, exploration, replay, invariants.

The raw-kernel conflict scenario proves the harness *detects* divergence
(same-instant writes to one list are observably order-dependent); the tiny
control-plane scenario proves the fleet *has none* — every explored
interleaving of migrate+scrub+defrag+heal is observationally equivalent to
the default schedule, with the full invariant pack clean.  Three pinned
seeds keep the highest-branching explored schedules as regressions, per the
"no race found" branch of the model-checking issue.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    ExplorationReport,
    Explorer,
    ScheduleTrace,
    check_invariants,
    tiny_control_plane,
    tiny_scenario_factory,
)
from repro.check.scenarios import ScenarioRun
from repro.sim.kernel import Simulator, Timeout
from repro.sim.schedule import RandomTieBreakPolicy, ScriptedPolicy


# --------------------------------------------------------------- trace object
class TestScheduleTrace:
    def test_seed_round_trip(self):
        trace = ScheduleTrace(choices=(0, 2, 1), branching=(3, 3, 2))
        assert trace.seed() == "0.2.1"
        parsed = ScheduleTrace.from_seed(trace.seed())
        assert parsed.choices == trace.choices

    def test_empty_seed_is_the_root_schedule(self):
        assert ScheduleTrace.from_seed("").choices == ()
        assert ScheduleTrace(choices=()).seed() == ""

    def test_json_round_trip(self):
        trace = ScheduleTrace(
            choices=(1, 0),
            branching=(2, 3),
            digest="d",
            violations=("boom",),
        )
        assert ScheduleTrace.from_json(trace.to_json()) == trace

    def test_validation_rejects_inconsistent_records(self):
        with pytest.raises(ValueError):
            ScheduleTrace(choices=(0, 1), branching=(2,))
        with pytest.raises(ValueError):
            ScheduleTrace(choices=(2,), branching=(2,))
        with pytest.raises(ValueError):
            ScheduleTrace.from_seed("1.-2")

    def test_branching_metrics(self):
        trace = ScheduleTrace(choices=(0, 1, 0), branching=(2, 5, 2))
        assert trace.depth == 3
        assert trace.max_branching == 5
        assert ScheduleTrace(choices=()).max_branching == 1


# ------------------------------------------------- divergence-sensitive model
def _conflict_scenario(policy):
    """Same-instant writes from two producers: schedule-order observable."""
    sim = Simulator(schedule_policy=policy)
    written = []
    log = []

    def producer(tag):
        yield Timeout(10.0)
        written.append(tag)
        if len(written) == 2:
            # The last writer queues the read at its own instant.
            sim.schedule_call(sim.clock.now, lambda _a, _b: log.extend(written))

    sim.spawn(producer("a"))
    sim.spawn(producer("b"))
    sim.run()
    return _KernelRun(tuple(log))


class _KernelRun:
    """Adapts a raw-kernel run to the Explorer's ScenarioRun protocol."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.trace_length = 0

    @property
    def digest(self):
        return repr(self.outcome)

    @property
    def fleet(self):
        return self

    # The invariant pack is fleet-shaped; give the adapter empty state.
    cards = ()
    migrating = frozenset()

    class _Stats:
        arrivals = completed = rejected = expired = 0
        migration_orders = migrations_completed = migrations_failed = 0
        migration_byte_diffs = heal_orders = heals_completed = heals_skipped = 0
        per_tenant_arrivals = per_tenant_completed = {}
        per_tenant_rejected = per_tenant_expired = {}

        @staticmethod
        def tenants():
            return ()

    stats = _Stats()


class TestExplorerOnDivergentModel:
    def test_dfs_finds_both_consumption_orders(self):
        explorer = Explorer(_conflict_scenario, max_schedules=40)
        report = explorer.explore()
        digests = {trace.digest for trace in report.traces}
        assert repr(("a", "b")) in digests
        assert repr(("b", "a")) in digests
        assert report.distinct_digests >= 2
        assert not report.truncated

    def test_replay_reproduces_recorded_digests(self):
        explorer = Explorer(_conflict_scenario, max_schedules=40)
        report = explorer.explore()
        for trace in report.traces:
            assert explorer.replay(trace).digest == trace.digest

    def test_replay_raises_on_digest_mismatch(self):
        explorer = Explorer(_conflict_scenario, max_schedules=4)
        trace = explorer.run_prefix(())
        forged = ScheduleTrace(
            choices=trace.choices, branching=trace.branching, digest="forged"
        )
        with pytest.raises(AssertionError, match="replay diverged"):
            explorer.replay(forged)

    def test_sampling_records_replayable_traces(self):
        explorer = Explorer(_conflict_scenario)
        report = explorer.sample(schedules=6, seed=11)
        assert report.schedules_run == 6
        for trace in report.traces:
            assert explorer.replay(trace).digest == trace.digest

    def test_first_violation_surfaces_a_seeded_bug(self):
        # Wrap the scenario so one specific interleaving "corrupts": the
        # explorer must return that trace, seed attached.
        def buggy(policy):
            run = _conflict_scenario(policy)
            if run.outcome == ("b", "a"):
                run.trace_length = -1  # trips request conservation
            return run

        report = Explorer(buggy, max_schedules=40).explore()
        assert report.violations
        found = report.violations[0]
        assert found.violations
        # The violating seed replays to the same interleaving.
        replayed = Explorer(_conflict_scenario).run_prefix(found.choices)
        assert replayed.digest == repr(("b", "a"))

    def test_exploration_bounds_are_validated(self):
        with pytest.raises(ValueError):
            Explorer(_conflict_scenario, max_schedules=0)
        with pytest.raises(ValueError):
            Explorer(_conflict_scenario, max_branch=0)

    def test_truncation_is_reported(self):
        explorer = Explorer(_conflict_scenario, max_schedules=2)
        report = explorer.explore()
        assert report.schedules_run == 2
        assert report.truncated


# ------------------------------------------------------ tiny control plane
@pytest.fixture(scope="module")
def control_plane_exploration() -> ExplorationReport:
    """One bounded DFS over the tiny migrate+scrub+defrag fleet (shared)."""
    explorer = Explorer(
        tiny_scenario_factory(), max_depth=24, max_branch=3, max_schedules=110
    )
    return explorer.explore()


class TestControlPlaneExploration:
    def test_default_policy_is_byte_identical_to_no_policy(self):
        assert (
            tiny_control_plane(None).digest
            == tiny_control_plane(ScriptedPolicy(())).digest
        )

    def test_dfs_enumerates_at_least_100_distinct_schedules(
        self, control_plane_exploration
    ):
        report = control_plane_exploration
        assert report.schedules_run >= 100
        assert len({trace.choices for trace in report.traces}) == report.schedules_run

    def test_every_explored_schedule_satisfies_the_invariant_pack(
        self, control_plane_exploration
    ):
        assert control_plane_exploration.violations == []

    def test_control_plane_is_schedule_insensitive(self, control_plane_exploration):
        # The model-checking result: every explored interleaving of the
        # four control-plane actors is observationally equivalent — same
        # event count, same final time, same completion-stream digest.
        assert control_plane_exploration.distinct_digests == 1

    def test_exploration_reaches_wide_ready_sets(self, control_plane_exploration):
        assert max(t.max_branching for t in control_plane_exploration.traces) >= 4


#: Satellite: no race was found, so the three highest-branching explored
#: schedules are pinned instead — the first DFS sibling of the root schedule
#: (whose widest choice point is the 6-wide t=0 spawn burst) and two deep
#: random-sampled scrambles that permute nearly every tie-break of the run.
#: Regenerate after a change to the scenario's ready sets (last: PR 22, the
#: burst lost its two card-worker spawns): ``control_plane_exploration``'s
#: ``traces[1].seed()``, then the ``choices`` of ``RandomTieBreakPolicy(seed=1)``
#: and ``(seed=3)`` after ``tiny_control_plane(policy)``.
PINNED_SCHEDULE_SEEDS = [
    "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.0.0",
    "1.4.0.1.0.1.1.1.1.0.0.1.0.1.3.2.0.2.1.1.0.0.1.0.0.0",
    "1.4.1.1.1.0.0.1.1.0.0.1.1.1.1.0.0.2.1.0.0.0.2.0.1.0.1",
]


class TestPinnedScheduleRegressions:
    @pytest.mark.parametrize("seed", PINNED_SCHEDULE_SEEDS)
    def test_pinned_schedule_replays_clean_and_equivalent(self, seed):
        explorer = Explorer(tiny_scenario_factory())
        trace = explorer.replay(ScheduleTrace.from_seed(seed))
        assert trace.violations == ()
        assert trace.digest == tiny_control_plane(None).digest

    def test_pinned_schedules_really_permute(self):
        explorer = Explorer(tiny_scenario_factory())
        trace = explorer.replay(ScheduleTrace.from_seed(PINNED_SCHEDULE_SEEDS[1]))
        assert any(choice != 0 for choice in trace.choices)
        assert trace.max_branching >= 4


# ----------------------------------------------------- hypothesis properties
class TestSchedulePermutationProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_schedules_preserve_conservation_and_bytes(self, seed):
        policy = RandomTieBreakPolicy(seed=seed)
        run = tiny_control_plane(policy)
        # Request conservation and byte-identical payloads: the invariant
        # pack checks arrivals==completed+rejected+expired, drained queues,
        # and every frame byte-identical to its golden image on every card.
        assert check_invariants(run.fleet, run.trace_length) == []
        # The recorded random schedule replays to the exact digest.
        explorer = Explorer(tiny_scenario_factory())
        trace = ScheduleTrace(
            choices=tuple(policy.choices),
            branching=tuple(policy.branching),
            digest=run.digest,
        )
        assert explorer.replay(trace).digest == run.digest

    @given(first=st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None)
    def test_any_first_choice_is_observationally_equivalent(self, first):
        run = tiny_control_plane(ScriptedPolicy((first,)))
        assert isinstance(run, ScenarioRun)
        assert run.digest == tiny_control_plane(None).digest
