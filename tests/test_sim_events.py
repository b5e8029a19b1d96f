"""Tests for the event queue."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator, Timeout


def schedule(queue, time_ns, tag=None, priority=0):
    queue.schedule_call(time_ns, lambda a, b: None, tag, None, priority=priority)


def drain_tags(queue):
    """Pop everything in dispatch order; returns each entry's first argument."""
    tags = []
    while queue:
        ready = queue.pop_ready_entries()
        tags.extend(entry[4] for entry in ready)
    return tags


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        schedule(queue, 30.0, "c")
        schedule(queue, 10.0, "a")
        schedule(queue, 20.0, "b")
        assert drain_tags(queue) == ["a", "b", "c"]

    def test_ties_break_by_priority_then_insertion(self):
        queue = EventQueue()
        schedule(queue, 10.0, "later", priority=5)
        schedule(queue, 10.0, "first")
        schedule(queue, 10.0, "second")
        assert drain_tags(queue) == ["first", "second", "later"]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        schedule(queue, 1.0)
        assert queue and len(queue) == 1
        queue.pop_ready_entries()
        assert not queue

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        assert queue.head() is None
        schedule(queue, 5.0, "only")
        assert queue.head()[4] == "only"
        assert len(queue) == 1

    def test_next_time(self):
        queue = EventQueue()
        assert queue.next_time is None
        schedule(queue, 7.0)
        assert queue.next_time == 7.0

    def test_clear(self):
        queue = EventQueue()
        schedule(queue, 1.0)
        queue.clear()
        assert len(queue) == 0


class TestFastPathScheduling:
    def test_schedule_call_dispatches_in_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_call(30.0, lambda a, b: fired.append((a, b)), "c", 3)
        queue.schedule_call(10.0, lambda a, b: fired.append((a, b)), "a", 1)
        queue.schedule_call(20.0, lambda a, b: fired.append((a, b)), "b", 2)
        while queue:
            for entry in queue.pop_ready_entries():
                entry[3](entry[4], entry[5])
        assert fired == [("a", 1), ("b", 2), ("c", 3)]

    def test_schedule_call_interleaves_with_events(self):
        # Heap-tier calls and the kernel's FIFO-tier continuations at the
        # same instant dispatch in one insertion (sequence) order.
        simulator = Simulator()
        order = []

        def process():
            order.append("process")
            yield Timeout(1.0)

        simulator.queue.schedule_call(0.0, lambda a, b: order.append(a), "before")
        simulator.spawn(process())
        simulator.queue.schedule_call(0.0, lambda a, b: order.append(a), "after")
        simulator.run()
        assert order == ["before", "process", "after"]

    def test_schedule_call_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_call(-1.0, lambda a, b: None)

    def test_len_counts_both_kinds(self):
        # One FIFO-tier entry (a process start at the current instant) and
        # one heap-tier entry (a scheduled call).
        simulator = Simulator()
        simulator.spawn((x for x in ()))
        simulator.queue.schedule_call(5.0, lambda a, b: None)
        assert len(simulator.queue._fifo) == 1 and len(simulator.queue._heap) == 1
        assert len(simulator.queue) == 2
        assert simulator.queue.next_time == 0.0
        simulator.run()
        assert len(simulator.queue) == 0
