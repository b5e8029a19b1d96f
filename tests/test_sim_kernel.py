"""Tests for the process-oriented simulator."""

import gc
import weakref

import pytest

from repro.sim.clock import Clock
from repro.sim.kernel import Simulator, SimulationError, Timeout, WaitEvent


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

    def test_process_result_recorded(self):
        simulator = Simulator()

        def worker():
            yield Timeout(1.0)
            return 42

        process = simulator.spawn(worker())
        simulator.run()
        assert process.finished and process.result == 42

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
        assert len(simulator.queue) == 2_000
        assert simulator.run() == 1_001_999
        assert simulator.events_dispatched == 4_000


class TestWaitEvents:
    def test_trigger_wakes_waiter(self):
        simulator = Simulator()
        gate = WaitEvent("gate")
        log = []

        def waiter():
            value = yield gate
            log.append(value)

        def opener():
            yield Timeout(10.0)
            simulator.trigger(gate, "opened")

        simulator.spawn(waiter())
        simulator.spawn(opener())
        simulator.run()
        assert log == ["opened"]

    def test_double_trigger_raises(self):
        gate = WaitEvent("gate")
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()


class TestProcessJoin:
    def test_finished_processes_are_not_retained(self):
        # The kernel must not hold a process once it has run: a list of
        # every process ever spawned is a leak sized by the run's length.
        simulator = Simulator()

        def sleeper():
            yield Timeout(1)

        alive = [weakref.ref(simulator.spawn(sleeper())) for _ in range(1000)]
        simulator.run()
        gc.collect()
        assert all(ref() is None for ref in alive)

    def test_waiting_on_a_process_returns_its_result(self):
        simulator = Simulator()
        results = []

        def child():
            yield Timeout(10.0)
            return "done"

        def parent():
            value = yield simulator.spawn(child())
            results.append((value, simulator.clock.now))

        simulator.spawn(parent())
        simulator.run()
        assert results == [("done", 10.0)]

    def test_unknown_yield_raises(self):
        simulator = Simulator()

        def bad():
            yield 123

        simulator.spawn(bad())
        with pytest.raises(SimulationError):
            simulator.run()

    def test_shared_clock(self):
        clock = Clock()
        simulator = Simulator(clock)

        def worker():
            yield Timeout(30.0)

        simulator.spawn(worker())
        simulator.run()
        assert clock.now == pytest.approx(30.0)


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
