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


class TestResources:
    def test_serialises_access(self):
        simulator = Simulator()
        resource = simulator.resource(capacity=1, name="bus")
        log = []

        def user(name):
            yield resource.request()
            log.append((name, simulator.clock.now, "acquire"))
            yield Timeout(10.0)
            resource.release()

        simulator.spawn(user("a"))
        simulator.spawn(user("b"))
        simulator.run()
        acquire_times = [entry[1] for entry in log]
        assert acquire_times == [0.0, 10.0]

    def test_capacity_two_allows_parallelism(self):
        simulator = Simulator()
        resource = simulator.resource(capacity=2)
        acquired = []

        def user():
            yield resource.request()
            acquired.append(simulator.clock.now)
            yield Timeout(5.0)
            resource.release()

        for _ in range(2):
            simulator.spawn(user())
        simulator.run()
        assert acquired == [0.0, 0.0]

    def test_release_of_idle_resource_raises(self):
        simulator = Simulator()
        resource = simulator.resource()
        with pytest.raises(SimulationError):
            resource.release()

    def test_wait_time_accounted(self):
        simulator = Simulator()
        resource = simulator.resource(capacity=1)

        def user():
            yield resource.request()
            yield Timeout(20.0)
            resource.release()

        simulator.spawn(user())
        simulator.spawn(user())
        simulator.run()
        assert resource.total_wait_ns == pytest.approx(20.0)
        assert resource.total_acquisitions == 2


class TestStores:
    def test_put_then_get(self):
        simulator = Simulator()
        store = simulator.store()
        received = []

        def producer():
            yield Timeout(5.0)
            store.put("item")

        def consumer():
            item = yield store.get()
            received.append((item, simulator.clock.now))

        simulator.spawn(consumer())
        simulator.spawn(producer())
        simulator.run()
        assert received == [("item", 5.0)]

    def test_get_from_nonempty_store_is_immediate(self):
        simulator = Simulator()
        store = simulator.store()
        store.put(1)
        received = []

        def consumer():
            received.append((yield store.get()))

        simulator.spawn(consumer())
        simulator.run()
        assert received == [1]


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


class TestEagerGet:
    """Synchronous store grants.

    A get against a non-empty store resumes the getter inside the current
    step instead of scheduling a same-instant event.
    """

    def test_synchronous_grants_do_not_count_against_max_events(self):
        def drain(store, count):
            for _ in range(count):
                yield store.get()

        simulator = Simulator()
        store = simulator.store()
        for value in range(50):
            store.put(value)
        simulator.spawn(drain(store, 50))
        # One dispatched start event; the 50 grants happen inside that step.
        simulator.run(max_events=2)
        assert simulator.events_dispatched == 1

    def test_empty_store_still_blocks_under_eager(self):
        simulator = Simulator()
        store = simulator.store()
        received = []

        def producer():
            yield Timeout(7.0)
            store.put("late")

        def consumer():
            received.append(((yield store.get()), simulator.clock.now))

        simulator.spawn(consumer())
        simulator.spawn(producer())
        simulator.run()
        assert received == [("late", 7.0)]
