"""Discrete-event simulator: a heap, a deque and a counter.

The simulator follows the generator-coroutine style: a *process* is a plain
Python generator that yields :class:`Timeout` to sleep, and nothing else.
:meth:`Simulator.resume` is the one stepper — it runs a generator to its next
``Timeout`` and queues itself to come back after the delay, or calls the
generator's ``then`` continuation once it has ended.  There is no process
object: what is queued is the generator.  The co-processor model uses the
simulator to interleave host request arrival, PCI transfers, reconfiguration
and function execution.

Every scheduled occurrence is one bare-callback entry ``(time, seq, fn, a,
b)`` — no event object, no name string, no closure — and
:meth:`Simulator.run` calls ``fn(a, b)`` at ``time``.  Entries order by
``(time, seq)``; ``seq`` comes from one counter, so ties break by insertion
order, the comparison never reaches the payload, and two runs with the same
inputs produce the same schedule.  A *ready set* is every entry at the
earliest time; a :class:`~repro.sim.schedule.SchedulePolicy` only changes
which of them :meth:`Simulator.run` takes next.

Storage is two tiers: a binary heap for future entries and a FIFO deque for
entries at the current instant — the dominant case when a card drains its
queue (service starts, zero-delay resumes and wake-ups all happen "now").  A
deque append/popleft is a few times cheaper than a heap sift, and because
only entries keyed ``(clock now, fresh seq)`` are appended, the deque is
always sorted.  :meth:`Simulator.run` merges the tiers by comparing heads, so
the dispatch order is a single heap's.  (A calendar queue for the future
tier was measured and rejected: bucket index arithmetic in Python loses to C
``heapq`` at the heap sizes the fleet produces — see the Kernel design note
in docs/performance.md.)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.sim.clock import Clock, as_ns
from repro.sim.schedule import SchedulePolicy


class SimulationError(RuntimeError):
    """Raised when a process misbehaves (e.g. yields something not a Timeout)."""


class Timeout:
    """Yielded by a process to sleep for ``delay_ns`` whole nanoseconds.

    A plain ``__slots__`` class rather than a dataclass: one is allocated per
    sleep, which makes construction cost part of the kernel's hot path.
    ``delay_ns`` is re-stamped on reused instances, so the whole-nanosecond
    check (:func:`~repro.sim.clock.as_ns`) sits where the kernel dispatches
    the timeout, not here.
    """

    __slots__ = ("delay_ns",)

    def __init__(self, delay_ns: int) -> None:
        if delay_ns < 0:
            raise ValueError("timeout delay must be non-negative")
        self.delay_ns = delay_ns

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay_ns!r})"


class Simulator:
    """Drives processes forward in simulated time.

    The simulator owns a :class:`~repro.sim.clock.Clock`; running it advances
    that clock, so transaction-level components that use the same clock
    observe a consistent timeline.
    """

    def __init__(self, schedule_policy: Optional[SchedulePolicy] = None) -> None:
        self.clock = Clock()
        #: Optional tie-break strategy for same-time ready sets.  ``None``
        #: (the default) dispatches in ``(time, seq)`` order; with a policy
        #: installed :meth:`run` gathers the ready set at every step and
        #: dispatches the policy's pick.
        self.schedule_policy = schedule_policy
        self.events_dispatched = 0
        self._heap: List[tuple] = []
        #: Entries at the current instant.  Only the kernel and the fleet's
        #: card server append here, and only entries keyed (clock now, fresh
        #: seq) — >= every key already queued; everyone else goes through the
        #: heap.
        self._fifo: Deque[tuple] = deque()
        self._next_seq = itertools.count().__next__
        # One bound method shared by every queued step (binding per
        # schedule would allocate).
        self._resume = self.resume

    def __len__(self) -> int:
        return len(self._heap) + len(self._fifo)

    # ---------------------------------------------------------------- queue
    def schedule_call(
        self, time_ns: int, fn: Callable[[Any, Any], None], arg1: Any = None, arg2: Any = None
    ) -> None:
        """Schedule ``fn(arg1, arg2)`` at *time_ns*."""
        if time_ns.__class__ is not int:  # as_ns, inlined for the common case
            time_ns = as_ns(time_ns)
        if time_ns < 0:
            raise ValueError("cannot schedule an event at negative time")
        heapq.heappush(self._heap, (time_ns, self._next_seq(), fn, arg1, arg2))

    def pop_ready_entries(self) -> List[tuple]:
        """Remove and return the ready set: every entry at the earliest time,
        sorted by sequence number, so index 0 is the entry the default
        dispatch order would run next.  ``[]`` when the queue is empty."""
        heap = self._heap
        fifo = self._fifo
        if heap:
            time_ns = heap[0][0]
            if fifo and fifo[0][0] < time_ns:
                time_ns = fifo[0][0]
        elif fifo:
            time_ns = fifo[0][0]
        else:
            return []
        # Each tier is sorted, so its share of the ready set is a prefix.
        ready: List[tuple] = []
        while fifo and fifo[0][0] == time_ns:
            ready.append(fifo.popleft())
        while heap and heap[0][0] == time_ns:
            ready.append(heapq.heappop(heap))
        ready.sort(key=itemgetter(1))
        return ready

    def push_entry(self, entry: tuple) -> None:
        """Re-queue an entry removed by :meth:`pop_ready_entries`.

        Always onto the heap: its sequence number is *older* than anything
        appended to the FIFO since, which would break the FIFO's order.
        """
        heapq.heappush(self._heap, entry)

    # ------------------------------------------------------------- processes
    def spawn(
        self,
        generator: Generator,
        name: Optional[str] = None,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        """Start *generator* now; ``then()`` runs once it has ended.

        *name* is accepted for callers that label their processes and is not
        kept: the kernel keeps no list of processes, so a generator lives as
        long as its queue entry (or its spawner) refers to it.
        """
        self._fifo.append((self.clock._now, self._next_seq(), self._resume, generator, then))

    # ------------------------------------------------------------------- run
    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Dispatch events until the queue empties or *until_ns* is reached.

        Returns the simulation time when the run stopped.  ``max_events``
        bounds the number of dispatches across **both** tiers; exceeding it
        raises :class:`SimulationError` deterministically, which is what
        stops a runaway zero-delay process loop from spinning forever.

        With a schedule policy installed, the whole same-time ready set is
        gathered at every step, the policy picks one entry and the rest go
        back on the heap.  Everything else — the horizon peek, the clock
        advance, one ``max_events`` count per dispatched entry — is shared,
        and a choice point only exists when the ready set has >= 2 entries,
        so a policy that always answers 0 reproduces the default schedule
        byte-for-byte.
        """
        heap = self._heap
        fifo = self._fifo
        clock = self.clock
        policy = self.schedule_policy
        heappop = heapq.heappop
        fifo_popleft = fifo.popleft
        if until_ns is None:
            limit = float("inf")
        else:
            limit = until_ns = as_ns(until_ns)
        dispatched = 0
        try:
            while True:
                # The earliest entry across the two tiers.  Sequence numbers
                # are unique, so the comparison never reaches the payload.
                if heap:
                    head = heap[0]
                    if fifo and fifo[0] < head:
                        head = fifo[0]
                        from_fifo = True
                    else:
                        from_fifo = False
                elif fifo:
                    head = fifo[0]
                    from_fifo = True
                else:
                    break
                time_ns = head[0]
                if time_ns > limit:
                    # Beyond the horizon: the head was only peeked, never
                    # popped, so there is no push-back sift to pay.
                    clock.advance_to(until_ns)
                    return clock._now
                if policy is None:
                    entry = fifo_popleft() if from_fifo else heappop(heap)
                else:
                    ready = self.pop_ready_entries()
                    entry = ready.pop(policy.choose(ready) if len(ready) > 1 else 0)
                    for other in ready:
                        self.push_entry(other)
                # Inlined Clock.advance_to (events never move time backwards).
                if time_ns > clock._now:
                    clock._now = time_ns
                entry[2](entry[3], entry[4])
                dispatched += 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"dispatched more than {max_events} events; possible livelock"
                    )
        finally:
            self.events_dispatched += dispatched
        if until_ns is not None and until_ns > clock._now:
            clock.advance_to(until_ns)
        return clock._now

    # ------------------------------------------------------------- stepping
    def resume(self, generator: Generator, then: Optional[Callable[[], None]]) -> None:
        """Run *generator* to its next ``Timeout`` and queue the step after
        it, or call ``then()`` (when given) once the generator has ended.

        One frame per step: the ``Timeout`` is handled inline.  A zero delay
        goes to the FIFO tier — its key (now, fresh seq) is >= every key
        already queued, so a plain append keeps the deque sorted.
        """
        try:
            yielded = generator.send(None)
        except StopIteration:
            if then is not None:
                then()
            return
        if yielded.__class__ is not Timeout:
            raise SimulationError(
                f"process {generator.__qualname__!r} yielded {yielded!r}, not a Timeout"
            )
        delay = yielded.delay_ns
        if delay.__class__ is not int:
            delay = as_ns(delay)
        entry = (self.clock._now + delay, self._next_seq(), self._resume, generator, then)
        if delay == 0:
            self._fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)
