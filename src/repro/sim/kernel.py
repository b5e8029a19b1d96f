"""Discrete-event simulator.

The simulator follows the generator-coroutine style: a *process* is a plain
Python generator that yields :class:`Timeout` to sleep, and nothing else.
:meth:`Simulator.resume` is the one stepper — it runs a generator to its next
``Timeout`` and queues itself to come back after the delay, or calls the
generator's ``then`` continuation once it has ended.  There is no process
object: what is queued is the generator.  The co-processor model uses the
simulator to interleave host request arrival, PCI transfers, reconfiguration
and function execution.

Every entry the kernel queues is the same shape — ``(time, 0, seq, resume,
generator, then)``, the :class:`~repro.sim.events.EventQueue` entry shape:
no per-event object, no closure, no label.  :meth:`Simulator.run` is the one
dispatch loop; a :class:`~repro.sim.schedule.SchedulePolicy` only changes
which entry of a same-instant ready set it takes next.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

from repro.sim.clock import Clock, as_ns
from repro.sim.events import EventQueue
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

    The simulator owns (or shares) a :class:`~repro.sim.clock.Clock`; running
    it advances that clock, so transaction-level components that use the same
    clock observe a consistent timeline.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        schedule_policy: Optional[SchedulePolicy] = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.queue = EventQueue()
        #: Optional tie-break strategy for same-``(time, priority)`` ready
        #: sets.  ``None`` (the default) dispatches in ``(time, priority,
        #: seq)`` order; with a policy installed :meth:`run` gathers the
        #: ready set at every step and dispatches the policy's pick.
        self.schedule_policy = schedule_policy
        self.events_dispatched = 0
        # Hot-path bindings: one bound method shared by every queued step
        # (binding per schedule would allocate), plus direct references to
        # the queue's tiers and sequence counter.
        self._resume = self.resume
        self._heap = self.queue._heap
        self._fifo = self.queue._fifo
        self._next_seq = self.queue._counter.__next__

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
        self._fifo.append((self.clock._now, 0, self._next_seq(), self._resume, generator, then))

    # ------------------------------------------------------------------- run
    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Dispatch events until the queue empties or *until_ns* is reached.

        Returns the simulation time when the run stopped.  ``max_events``
        bounds the number of dispatches across **both** scheduler tiers (the
        FIFO now-bucket and the future-event heap); exceeding it raises
        :class:`SimulationError` deterministically, which is what stops a
        runaway zero-delay process loop from spinning forever.

        With a schedule policy installed, the whole same-``(time, priority)``
        ready set is gathered at every step, the policy picks one entry and
        the rest go back on the heap tier.  Everything else — the horizon
        peek, the clock advance, one ``max_events`` count per dispatched
        entry — is shared, and a choice point only exists when the ready set
        has >= 2 entries, so a policy that always answers 0 reproduces the
        default schedule byte-for-byte.
        """
        queue = self.queue
        heap = queue._heap
        fifo = queue._fifo
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
                # Select the earliest entry across the two tiers.  Entry
                # tuples compare by (time, priority, seq) — sequence numbers
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
                    return clock.now
                if policy is None:
                    entry = fifo_popleft() if from_fifo else heappop(heap)
                else:
                    ready = queue.pop_ready_entries()
                    entry = ready.pop(policy.choose(ready) if len(ready) > 1 else 0)
                    for other in ready:
                        queue.push_entry(other)
                # Inlined Clock.advance_to (events never move time backwards).
                if time_ns > clock._now:
                    previous = clock._now
                    clock._now = time_ns
                    if clock._observers:
                        for observer in clock._observers:
                            observer(previous, time_ns)
                entry[3](entry[4], entry[5])
                dispatched += 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"dispatched more than {max_events} events; possible livelock"
                    )
        finally:
            self.events_dispatched += dispatched
        if until_ns is not None and until_ns > clock.now:
            clock.advance_to(until_ns)
        return clock.now

    # ------------------------------------------------------------- stepping
    def resume(self, generator: Generator, then: Optional[Callable[[], None]]) -> None:
        """Run *generator* to its next ``Timeout`` and queue the step after
        it, or call ``then()`` (when given) once the generator has ended.

        One frame per step: the ``Timeout`` is handled inline.  A zero delay
        goes to the FIFO tier — its key (now, 0, fresh seq) is >= every key
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
        entry = (self.clock._now + delay, 0, self._next_seq(), self._resume, generator, then)
        if delay == 0:
            self._fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)
