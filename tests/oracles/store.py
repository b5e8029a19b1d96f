"""The kernel ``Store`` deleted in PR 22, as much of it as the oracles use.

One consumer process drains a FIFO of items: ``item = yield from
store.get()`` pops synchronously while items remain and blocks on a
``WaitEvent`` only when the store is empty; ``put`` to a blocked consumer
wakes it through ``Simulator.trigger`` — one same-instant kernel entry,
numbered where the old kernel's wake-up was, so a process written against
the old ``Store`` keeps its schedule without kernel support.
"""

from __future__ import annotations

from collections import deque

from repro.sim.kernel import WaitEvent


class Store:
    def __init__(self, simulator):
        self.simulator = simulator
        self.items = deque()
        self._blocked = None  # the consumer's WaitEvent while it waits

    def __len__(self):
        return len(self.items)

    def put(self, item):
        blocked, self._blocked = self._blocked, None
        if blocked is None:
            self.items.append(item)
        else:
            self.simulator.trigger(blocked, item)

    def get(self):
        if self.items:
            return self.items.popleft()
        self._blocked = WaitEvent("store-get")
        return (yield self._blocked)
