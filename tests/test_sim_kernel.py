"""Tests for the simulator: generators stepped from one ``Timeout`` to the next."""

import collections
import gc
import os
import sys
import weakref

import pytest

import repro.sim
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator, SimulationError, Timeout

SIM_ROOT = os.path.dirname(repro.sim.__file__) + os.sep


def sim_frames(action):
    """``{function name: Python frames entered}`` under ``src/repro/sim/``
    while *action* runs."""
    frames = collections.Counter()

    def count_calls(frame, event, _):
        if event == "call" and frame.f_code.co_filename.startswith(SIM_ROOT):
            frames[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return dict(frames)


class TestTimeouts:
    def test_single_process_advances_time(self):
        simulator = Simulator()

        def worker():
            yield Timeout(100.0)
            yield Timeout(50.0)

        simulator.spawn(worker())
        end = simulator.run()
        assert end == pytest.approx(150.0)

    def test_processes_interleave(self):
        simulator = Simulator()
        order = []

        def worker(name, delay):
            yield Timeout(delay)
            order.append(name)

        simulator.spawn(worker("slow", 20.0))
        simulator.spawn(worker("fast", 5.0))
        simulator.run()
        assert order == ["fast", "slow"]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_run_until_limits_time(self):
        simulator = Simulator()

        def worker():
            yield Timeout(1000.0)

        simulator.spawn(worker())
        end = simulator.run(until_ns=100.0)
        assert end == pytest.approx(100.0)

    def test_run_until_pops_nothing_beyond_the_horizon(self):
        # A pause short of the queue head is a peek: nothing is dispatched
        # (or popped and pushed back), and the drain afterwards still fires
        # every sleeper.
        simulator = Simulator()

        def sleeper(delay_ns):
            yield Timeout(delay_ns)

        for index in range(2_000):
            simulator.spawn(sleeper(1_000_000 + index))
        simulator.run(until_ns=0)  # the 2 000 process starts, all at t=0
        assert simulator.events_dispatched == 2_000
        for pause in range(1, 2_001):
            assert simulator.run(until_ns=pause * 499) == pause * 499
        assert simulator.events_dispatched == 2_000
        assert len(simulator) == 2_000
        assert simulator.run() == 1_001_999
        assert simulator.events_dispatched == 4_000


class TestProcessJoin:
    """How a process ends: nothing joins it, nothing keeps it."""

    def test_finished_processes_are_not_retained(self):
        # The kernel must not hold a generator once it has run: a list of
        # every process ever spawned is a leak sized by the run's length.
        simulator = Simulator()

        def sleeper():
            yield Timeout(1)

        generators = [sleeper() for _ in range(1000)]
        alive = [weakref.ref(generator) for generator in generators]
        for generator in generators:
            simulator.spawn(generator)
        del generators, generator
        simulator.run()
        gc.collect()
        assert all(ref() is None for ref in alive)

    def test_unknown_yield_raises(self):
        simulator = Simulator()

        def bad():
            yield 123

        simulator.spawn(bad())
        with pytest.raises(SimulationError, match="bad"):
            simulator.run()

    def test_shared_clock(self):
        simulator = Simulator()
        clock = simulator.clock

        def worker():
            yield Timeout(30.0)

        simulator.spawn(worker())
        simulator.run()
        assert clock.now == pytest.approx(30.0)


class TestContinuations:
    def test_then_runs_once_at_the_last_step_after_its_effects(self):
        simulator = Simulator()
        log = []

        def worker():
            yield Timeout(5)
            log.append(("step", simulator.clock.now))
            yield Timeout(7)
            log.append(("last step", simulator.clock.now))

        simulator.spawn(worker(), then=lambda: log.append(("then", simulator.clock.now)))
        simulator.schedule_call(20, lambda _a, _b: log.append(("later", 20)))
        simulator.run()
        assert log == [("step", 5), ("last step", 12), ("then", 12), ("later", 20)]
        # The end is the last step's dispatch, not an entry of its own.
        assert simulator.events_dispatched == 4

    def test_a_generator_that_never_yields_ends_at_its_spawn_instant(self):
        simulator = Simulator()
        ended = []

        def idle():
            return
            yield  # pragma: no cover - makes this a generator

        def spawn_idle(_a, _b):
            simulator.spawn(idle(), then=lambda: ended.append(simulator.clock.now))

        simulator.schedule_call(30, spawn_idle)
        simulator.run()
        assert ended == [30]
        assert simulator.events_dispatched == 2

    def test_a_non_timeout_yield_names_the_generator(self):
        simulator = Simulator()

        class Misbehaving:
            @staticmethod
            def waits_on_an_event():
                yield object()

        simulator.spawn(Misbehaving.waits_on_an_event(), then=pytest.fail)
        with pytest.raises(SimulationError) as raised:
            simulator.run()
        assert "Misbehaving.waits_on_an_event" in str(raised.value)

    def test_a_named_spawn_with_a_float_timeout_runs(self):
        # The form the benchmark's kernel round uses: name= and a float delay.
        simulator = Simulator()

        def ticker():
            for _ in range(3):
                yield Timeout(10.0)

        simulator.spawn(ticker(), name="x")
        assert simulator.run() == 30
        assert simulator.events_dispatched == 4


class TestMaxEvents:
    def test_runaway_zero_delay_loop_raises_deterministically(self):
        simulator = Simulator()

        def spinner():
            while True:
                yield Timeout(0.0)  # simulated time never advances

        simulator.spawn(spinner())
        with pytest.raises(SimulationError):
            simulator.run(max_events=100)
        # Deterministic cap: exactly the limit plus the offending dispatch.
        assert simulator.events_dispatched == 101

    def test_completing_run_is_unaffected_by_a_generous_cap(self):
        simulator = Simulator()

        def worker():
            for _ in range(5):
                yield Timeout(1.0)

        simulator.spawn(worker())
        assert simulator.run(max_events=1_000) == pytest.approx(5.0)


class TestWorkCounters:
    """The clock's and the stepper's host-side work, counted exactly."""

    def test_a_clock_advance_enters_one_frame(self):
        # Nothing watches the clock: an advance calls no one.
        clock = Clock()
        assert sim_frames(lambda: clock.advance(5)) == {"advance": 1}
        assert clock.now == 5

    def test_a_ticker_step_is_one_resume_frame(self):
        # One reused Timeout, as the fleet's services re-stamp theirs: a
        # fresh one per sleep would add a ``Timeout.__init__`` frame a step.
        steps = 1_000
        tick = Timeout(10)

        def ticker():
            for _ in range(steps - 1):
                yield tick

        simulator = Simulator()
        simulator.spawn(ticker())
        assert sim_frames(simulator.run) == {"run": 1, "resume": steps}
        assert simulator.events_dispatched == steps
        assert simulator.clock.now == 10 * (steps - 1)
