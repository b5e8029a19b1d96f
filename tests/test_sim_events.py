"""Tests for the simulator's queue: ``(time, seq, fn, a, b)`` entries on a heap and a FIFO."""

import pytest

from repro.sim.kernel import Simulator, Timeout


def schedule(simulator, time_ns, tag=None):
    simulator.schedule_call(time_ns, lambda a, b: None, tag, None)


def drain_tags(simulator):
    """Pop everything in dispatch order; returns each entry's first argument."""
    tags = []
    while simulator:
        ready = simulator.pop_ready_entries()
        tags.extend(entry[3] for entry in ready)
    return tags


class TestSimulatorQueue:
    def test_orders_by_time(self):
        simulator = Simulator()
        schedule(simulator, 30.0, "c")
        schedule(simulator, 10.0, "a")
        schedule(simulator, 20.0, "b")
        assert drain_tags(simulator) == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        simulator = Simulator()
        schedule(simulator, 10.0, "first")
        schedule(simulator, 10.0, "second")
        schedule(simulator, 5.0, "earlier")
        schedule(simulator, 10.0, "third")
        assert drain_tags(simulator) == ["earlier", "first", "second", "third"]

    def test_len_and_bool(self):
        simulator = Simulator()
        assert not simulator
        schedule(simulator, 1.0)
        assert simulator and len(simulator) == 1
        simulator.pop_ready_entries()
        assert not simulator


class TestFastPathScheduling:
    def test_schedule_call_dispatches_in_order(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_call(30.0, lambda a, b: fired.append((a, b)), "c", 3)
        simulator.schedule_call(10.0, lambda a, b: fired.append((a, b)), "a", 1)
        simulator.schedule_call(20.0, lambda a, b: fired.append((a, b)), "b", 2)
        while simulator:
            for entry in simulator.pop_ready_entries():
                entry[2](entry[3], entry[4])
        assert fired == [("a", 1), ("b", 2), ("c", 3)]

    def test_schedule_call_interleaves_with_events(self):
        # Heap-tier calls and the kernel's FIFO-tier continuations at the
        # same instant dispatch in one insertion (sequence) order.
        simulator = Simulator()
        order = []

        def process():
            order.append("process")
            yield Timeout(1.0)

        simulator.schedule_call(0.0, lambda a, b: order.append(a), "before")
        simulator.spawn(process())
        simulator.schedule_call(0.0, lambda a, b: order.append(a), "after")
        simulator.run()
        assert order == ["before", "process", "after"]

    def test_schedule_call_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_call(-1.0, lambda a, b: None)

    def test_len_counts_both_kinds(self):
        # One FIFO-tier entry (a process start at the current instant) and
        # one heap-tier entry (a scheduled call).
        simulator = Simulator()
        simulator.spawn((x for x in ()))
        simulator.schedule_call(5.0, lambda a, b: None)
        assert len(simulator._fifo) == 1 and len(simulator._heap) == 1
        assert len(simulator) == 2
        simulator.run()
        assert len(simulator) == 0
