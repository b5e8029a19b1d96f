"""The event queue of the discrete-event kernel.

Every scheduled occurrence is one bare-callback entry
``(time, priority, seq, fn, arg1, arg2)`` — no event object, no name string,
no closure.  Entries order by ``(time, priority, seq)``; ``seq`` comes from
one monotonically increasing counter, so ties break by insertion order, the
comparison never reaches the non-orderable payload fields, and two runs with
the same inputs produce the same schedule.

Storage is a **tiered scheduler**: a binary heap for future events plus a
plain FIFO deque (``_fifo``) the kernel uses for same-timestamp, priority-0
continuations — the dominant case when a card drains its queue (service
starts, zero-delay resumes and wake-ups all happen "now").  A deque
append/popleft is a few times cheaper than a heap sift, and because the
kernel only appends entries keyed at the current clock time with the globally
increasing sequence counter, the deque is always sorted by the entry key.
Consumers merge the two tiers by comparing heads, so the dispatch order is
identical to a single-heap implementation.

(A calendar queue for the future tier was measured and rejected: bucket
 index arithmetic in Python loses to C ``heapq`` for the heap sizes the
 fleet produces — see the Kernel design note in docs/performance.md.)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.clock import as_ns


class EventQueue:
    """A deterministic two-tier priority queue of bare callbacks."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        #: FIFO tier for same-timestamp continuations.  Only the simulator
        #: kernel and the fleet's card server append here, and only entries
        #: keyed (clock now, 0, fresh seq) — >= every key already in the
        #: deque; everyone else goes through the heap.  Entries have the same shape as heap entries
        #: and the deque is always sorted by (time, priority, seq).
        self._fifo: Deque[tuple] = deque()
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap) + len(self._fifo)

    def schedule_call(
        self,
        time_ns: int,
        fn: Callable[[Any, Any], None],
        arg1: Any = None,
        arg2: Any = None,
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(arg1, arg2)`` at *time_ns*."""
        if time_ns.__class__ is not int:  # as_ns, inlined for the common case
            time_ns = as_ns(time_ns)
        if time_ns < 0:
            raise ValueError("cannot schedule an event at negative time")
        heapq.heappush(
            self._heap, (time_ns, priority, next(self._counter), fn, arg1, arg2)
        )

    def head(self) -> Optional[tuple]:
        """The earliest entry across both tiers, not removed; ``None`` if empty."""
        heap = self._heap
        fifo = self._fifo
        if heap:
            if fifo and fifo[0] < heap[0]:
                return fifo[0]
            return heap[0]
        return fifo[0] if fifo else None

    @property
    def next_time(self) -> Optional[int]:
        """Time of the earliest pending entry, or ``None`` when empty."""
        head = self.head()
        return None if head is None else head[0]

    def pop_ready_entries(self) -> List[tuple]:
        """Remove and return the whole ready set at the earliest key.

        The ready set is every entry whose ``(time, priority)`` equals the
        minimum across both tiers, returned sorted by sequence number —
        index 0 is the entry the default dispatch order would run next.
        This is the schedule-exploration hook: with a
        :class:`~repro.sim.schedule.SchedulePolicy` installed, the kernel
        gathers the ready set here, dispatches the policy's pick, and pushes
        the rest back via :meth:`push_entry`.  Returns ``[]`` when the queue
        is empty.
        """
        head = self.head()
        if head is None:
            return []
        time_ns, priority = head[0], head[1]
        heap = self._heap
        fifo = self._fifo
        # Each tier is sorted by the full key, so its share of the ready set
        # is a prefix; sorting the union by seq presents one canonical order.
        ready: List[tuple] = []
        while fifo and fifo[0][0] == time_ns and fifo[0][1] == priority:
            ready.append(fifo.popleft())
        while heap and heap[0][0] == time_ns and heap[0][1] == priority:
            ready.append(heapq.heappop(heap))
        ready.sort(key=lambda entry: entry[2])
        return ready

    def push_entry(self, entry: tuple) -> None:
        """Re-queue an entry previously removed by :meth:`pop_ready_entries`.

        Always goes to the heap tier: a pushed-back entry's sequence number
        is *older* than anything appended to the FIFO afterwards, so the
        FIFO's sorted-append invariant would not survive it.
        """
        heapq.heappush(self._heap, entry)

    def clear(self) -> None:
        self._heap.clear()
        self._fifo.clear()
