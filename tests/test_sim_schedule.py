"""Schedule policies and the kernel's ready-set dispatch path.

Covers the SchedulePolicy contract (recording, scripting, divergence,
seeded randomness), byte-identity of the policy path against the default
merged-head loop, genuine permutation of conflicting same-instant events,
and ``max_events`` / ``until_ns`` accounting parity under permuted ready
sets.
"""

import pytest

from repro.sim.kernel import Simulator, SimulationError, Timeout
from repro.sim.schedule import (
    RandomTieBreakPolicy,
    ScheduleDivergenceError,
    SchedulePolicy,
    ScriptedPolicy,
)


def _conflict_scenario(policy, producers=2):
    """Same-instant writes to one shared list: order is policy-observable.

    The last writer queues the read at its own instant, and the read sees
    the list as it was written."""
    sim = Simulator(schedule_policy=policy)
    written = []
    log = []

    def producer(tag):
        yield Timeout(10.0)
        written.append(tag)
        if len(written) == producers:
            sim.schedule_call(sim.clock.now, lambda _a, _b: log.extend(written))

    for index in range(producers):
        sim.spawn(producer(chr(ord("a") + index)))
    sim.run()
    return sim, log


class TestPolicyObjects:
    def test_base_policy_always_picks_zero(self):
        policy = SchedulePolicy()
        assert policy.choose([(0,), (1,), (2,)]) == 0
        assert policy.choices == [] and policy.branching == []

    def test_scripted_policy_records_choices_and_branching(self):
        policy = ScriptedPolicy((1,))
        ready = [(0, i) for i in range(3)]
        assert policy.choose(ready) == 1
        assert policy.choose(ready[:2]) == 0  # past the prefix: default
        assert policy.choices == [1, 0]
        assert policy.branching == [3, 2]

    def test_scripted_policy_rejects_negative_prefix(self):
        with pytest.raises(ValueError):
            ScriptedPolicy((0, -1))

    def test_scripted_policy_raises_on_divergence(self):
        policy = ScriptedPolicy((5,))
        with pytest.raises(ScheduleDivergenceError):
            policy.choose([(0,), (1,)])

    def test_random_policy_is_seed_deterministic(self):
        ready = [(0, i) for i in range(4)]
        first = RandomTieBreakPolicy(seed=42)
        picks = [first.choose(ready) for _ in range(8)]
        again = RandomTieBreakPolicy(seed=42)
        assert [again.choose(ready) for _ in range(8)] == picks
        assert first.choices == picks and first.branching == [4] * 8


class TestPolicyDispatchPath:
    def test_default_policy_matches_no_policy_byte_for_byte(self):
        _, base_log = _conflict_scenario(None, producers=3)
        sim_scripted, scripted_log = _conflict_scenario(ScriptedPolicy(()), producers=3)
        sim_plain, _ = _conflict_scenario(None, producers=3)
        assert scripted_log == base_log
        assert sim_scripted.events_dispatched == sim_plain.events_dispatched
        assert sim_scripted.clock.now == sim_plain.clock.now

    def test_permuted_choice_flips_observable_order(self):
        _, default_order = _conflict_scenario(ScriptedPolicy(()))
        _, flipped_order = _conflict_scenario(ScriptedPolicy((1,)))
        assert default_order == ["a", "b"]
        assert flipped_order == ["b", "a"]

    def test_choice_points_cascade_through_the_ready_set(self):
        policy = ScriptedPolicy(())
        _conflict_scenario(policy, producers=3)
        # The t=0 spawn burst and the t=10 wake burst are each a 3-wide
        # ready set (the producers) which shrinks by one per dispatch;
        # singleton sets — the last producer, the read — never consult the
        # policy.
        assert policy.branching == [3, 2, 3, 2]

    def test_permutation_preserves_dispatch_count(self):
        sims = [
            _conflict_scenario(policy, producers=3)[0]
            for policy in (None, ScriptedPolicy((2, 1)), RandomTieBreakPolicy(7))
        ]
        counts = {sim.events_dispatched for sim in sims}
        assert len(counts) == 1

    def test_max_events_bound_enforced_identically_under_policy(self):
        def spinner(sim):
            while True:
                yield Timeout(0.0)

        for policy in (None, ScriptedPolicy(()), RandomTieBreakPolicy(3)):
            sim = Simulator(schedule_policy=policy)
            sim.spawn(spinner(sim), name="spin")
            with pytest.raises(SimulationError):
                sim.run(max_events=50)
            # The bound dispatches exactly max_events + 1 before raising,
            # policy or not.
            assert sim.events_dispatched == 51

    def test_until_ns_pauses_before_popping_under_policy(self):
        ticks = []

        def ticker():
            while True:
                yield Timeout(100.0)
                ticks.append(1)

        sim = Simulator(schedule_policy=ScriptedPolicy(()))
        sim.spawn(ticker(), name="ticker")
        now = sim.run(until_ns=250.0)
        assert now == 250.0
        assert sim.clock.now == 250.0
        assert len(ticks) == 2
        # The paused head is intact: resuming picks up the 300ns tick.
        sim.run(until_ns=300.0)
        assert len(ticks) == 3

    def test_policy_run_drains_to_empty_and_advances_to_horizon(self):
        sim = Simulator(schedule_policy=ScriptedPolicy(()))

        def once():
            yield Timeout(5.0)

        sim.spawn(once(), name="once")
        now = sim.run(until_ns=50.0)
        assert now == 50.0


class TestReadySetQueueApi:
    def test_pop_ready_entries_gathers_only_the_minimal_key(self):
        sim = Simulator()

        def sleeper():
            yield Timeout(1.0)

        sim.spawn(sleeper(), name="a")
        sim.spawn(sleeper(), name="b")
        sim.schedule_call(5.0, lambda a, b: None, "later")
        ready = sim.pop_ready_entries()
        assert len(ready) == 2  # the two t=0 starts; the t=5 entry stays
        assert len(sim) == 1  # the gathered entries are out of the queue

    def test_pop_ready_entries_orders_by_sequence(self):
        sim = Simulator()
        for index in range(4):
            sim.schedule_call(10.0, lambda a, b: None, index, None)
        ready = sim.pop_ready_entries()
        assert [entry[1] for entry in ready] == sorted(entry[1] for entry in ready)
        assert len(ready) == 4

    def test_push_entry_requeues_a_gathered_entry(self):
        sim = Simulator()
        sim.schedule_call(10.0, lambda a, b: None, "first", None)
        sim.schedule_call(10.0, lambda a, b: None, "second", None)
        ready = sim.pop_ready_entries()
        assert len(sim) == 0
        sim.push_entry(ready[1])
        assert len(sim) == 1
        assert sim.pop_ready_entries() == [ready[1]]

    def test_pop_ready_entries_empty_queue(self):
        sim = Simulator()
        assert sim.pop_ready_entries() == []
