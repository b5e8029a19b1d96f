"""The kernel ``Store`` deleted in PR 22, as much of it as the oracles use.

One consumer process drains a FIFO of items: ``item = yield from
store.get()`` pops synchronously while items remain and parks the consumer
only when the store is empty; ``put`` to a parked consumer wakes it with one
same-instant FIFO entry, numbered where the old kernel's wake-up was, so a
process written against the old ``Store`` keeps its schedule.

The kernel only steps a generator from one ``Timeout`` to the next, so the
consumer runs under this module's own stepper: start it with
``store.spawn(consumer)`` instead of ``Simulator.spawn``.  Its ``Timeout``
yields are queued on the kernel exactly as ``Simulator.resume`` queues them;
a park queues nothing.  The consumers here never end.
"""

from __future__ import annotations

import heapq
from collections import deque

#: What ``get`` yields to its stepper when the store is empty.
_PARK = object()


class Store:
    def __init__(self, simulator):
        self.simulator = simulator
        self.items = deque()
        self._parked = None  # the consumer generator while it waits

    def __len__(self):
        return len(self.items)

    def spawn(self, consumer):
        """Start *consumer*, a generator draining this store, now."""
        self._queue(consumer, 0, None)

    def put(self, item):
        parked, self._parked = self._parked, None
        if parked is None:
            self.items.append(item)
        else:
            self._queue(parked, 0, item)

    def get(self):
        if self.items:
            return self.items.popleft()
        return (yield _PARK)

    def _step(self, consumer, value):
        yielded = consumer.send(value)
        if yielded is _PARK:
            self._parked = consumer
        else:
            self._queue(consumer, yielded.delay_ns, None)

    def _queue(self, consumer, delay_ns, value):
        simulator = self.simulator
        entry = (
            simulator.clock._now + delay_ns,
            simulator._next_seq(),
            self._step,
            consumer,
            value,
        )
        if delay_ns:
            heapq.heappush(simulator._heap, entry)
        else:
            simulator._fifo.append(entry)
