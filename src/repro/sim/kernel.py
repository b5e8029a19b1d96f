"""Process-oriented discrete-event simulator.

The simulator follows the familiar generator-coroutine style: a *process* is a
Python generator that yields scheduling primitives (:class:`Timeout`,
:class:`WaitEvent`, another :class:`Process` to join) and is resumed when the
primitive completes.  The co-processor model uses the simulator to interleave host
request arrival, PCI transfers, reconfiguration and function execution.

Every continuation the kernel schedules is the same shape — "resume process P
with value V" — so it is queued as the bound method ``self._step`` with its
two arguments (the :class:`~repro.sim.events.EventQueue` entry shape): no
per-event object, no closure, no label.  :meth:`Simulator.run` is the one
dispatch loop; a :class:`~repro.sim.schedule.SchedulePolicy` only changes
which entry of a same-instant ready set it takes next.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional

from repro.sim.clock import Clock, as_ns
from repro.sim.events import EventQueue
from repro.sim.schedule import SchedulePolicy


class SimulationError(RuntimeError):
    """Raised when a process misbehaves (e.g. yields an unknown primitive)."""


class Timeout:
    """Yielded by a process to sleep for ``delay_ns`` whole nanoseconds.

    A plain ``__slots__`` class rather than a dataclass: one is allocated per
    sleep, which makes construction cost part of the kernel's hot path.
    ``delay_ns`` is re-stamped on reused instances, so the whole-nanosecond
    check (:func:`~repro.sim.clock.as_ns`) sits where the kernel dispatches
    the timeout, not here.
    """

    __slots__ = ("delay_ns", "value")

    def __init__(self, delay_ns: int, value: Any = None) -> None:
        if delay_ns < 0:
            raise ValueError("timeout delay must be non-negative")
        self.delay_ns = delay_ns
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay_ns!r}, value={self.value!r})"


class WaitEvent:
    """A one-shot condition a process can wait on and another can trigger."""

    def __init__(self, name: str = "wait-event") -> None:
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking every waiting process."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        state = "triggered" if self.triggered else "pending"
        return f"WaitEvent({self.name!r}, {state})"


class Process:
    """A running generator registered with the simulator."""

    _ids = 0

    def __init__(self, generator: Generator, name: Optional[str] = None) -> None:
        Process._ids += 1
        self.pid = Process._ids
        self.name = name or f"process-{self.pid}"
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self.waiters: List["Process"] = []

    def __repr__(self) -> str:  # pragma: no cover
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


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
        # Hot-path bindings: one bound method shared by every continuation
        # (binding per schedule would allocate), plus direct references to
        # the queue's tiers and sequence counter.
        self._step_bound = self._step
        self._heap = self.queue._heap
        self._fifo = self.queue._fifo
        self._next_seq = self.queue._counter.__next__

    # --------------------------------------------------------- fast schedule
    def _schedule_step(self, time_ns: int, process: Process, value: Any) -> None:
        """Schedule "resume *process* with *value*" at *time_ns*.

        Inlined ``EventQueue.schedule_call``: continuation times derive from
        the clock plus a validated non-negative delay, so the negative-time
        check is unnecessary here.  Same-timestamp continuations (zero-delay
        resumes, wake-ups) go to the FIFO tier: the
        entry's key (now, 0, fresh seq) is >= every key already queued, so a
        plain append keeps the deque sorted and the merge deterministic.
        """
        entry = (time_ns, 0, self._next_seq(), self._step_bound, process, value)
        if time_ns == self.clock._now:
            self._fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    # ------------------------------------------------------------- processes
    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register *generator* as a process starting now.

        The kernel keeps no list of processes: one lives as long as a queue
        entry, a waiter list or its spawner refers to it.
        """
        process = Process(generator, name=name)
        self._schedule_step(self.clock.now, process, None)
        return process

    def trigger(self, wait_event: WaitEvent, value: Any = None) -> None:
        """Trigger *wait_event* now, scheduling its waiters to resume."""
        if not wait_event.triggered:
            wait_event.succeed(value if value is not None else wait_event.value)
        now = self.clock.now
        resumed_value = wait_event.value
        for process in wait_event._waiters:
            self._schedule_step(now, process, resumed_value)
        wait_event._waiters.clear()

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
    def _step(self, process: Process, send_value: Any) -> None:
        """Resume *process* with *send_value* and handle what it yields."""
        if process.finished:
            return
        try:
            yielded = process.generator.send(send_value)
        except StopIteration as stop:
            process.finished = True
            process.result = stop.value
            now = self.clock.now
            for waiter in process.waiters:
                self._schedule_step(now, waiter, stop.value)
            process.waiters.clear()
            return
        # Fast path for the dominant yield kind; everything else dispatches
        # through _handle_yield (which also catches Timeout subclasses).
        if yielded.__class__ is Timeout:
            delay = yielded.delay_ns
            if delay.__class__ is not int:
                delay = as_ns(delay)
            entry = (
                self.clock._now + delay,
                0,
                self._next_seq(),
                self._step_bound,
                process,
                yielded.value,
            )
            if delay == 0:
                self._fifo.append(entry)
            else:
                heapq.heappush(self._heap, entry)
            return
        self._handle_yield(process, yielded)

    def _handle_yield(self, process: Process, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self._schedule_step(self.clock.now + as_ns(yielded.delay_ns), process, yielded.value)
        elif isinstance(yielded, WaitEvent):
            if yielded.triggered:
                self._schedule_step(self.clock.now, process, yielded.value)
            else:
                yielded._waiters.append(process)
        elif isinstance(yielded, Process):
            if yielded.finished:
                self._schedule_step(self.clock.now, process, yielded.result)
            else:
                yielded.waiters.append(process)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unsupported object {yielded!r}"
            )
