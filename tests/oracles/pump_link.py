"""The pre-PR-20 ``Link``: a ``Store`` egress queue drained by a pump process.

Kept as the independent reference for ``repro.net.link.Link``'s send-time
arithmetic (``tests/test_net_link_oracle.py``).  It is the old class moved
here unchanged except for what the kernel no longer offers or the oracle
does not need: the arrival process sleeps its own propagation delay
(``Simulator.spawn(delay_ns=)`` is gone), the ``Store`` is the test-side one
(``tests/oracles/store.py``; the kernel's went in PR 22), there is no
tracer, and the queue bound and the bandwidth are ``Link``'s module
constants :data:`~repro.net.link.QUEUE_PACKETS` and
:data:`~repro.net.link.GBPS`, read at each send so a test can patch them for
both.

Each packet costs a ``Store`` hand-off, a pump wake-up when the wire was
idle, a serialise ``Timeout`` and a spawned arrival process; the pump drains
the store, so it runs under the store's stepper and must be started
(``link._queue.spawn(link.pump())``) before the first ``send``.
"""

from __future__ import annotations

from oracles.store import Store
from repro.net import link as link_module
from repro.sim.kernel import Timeout


class PumpLink:
    """One direction of a path: bounded queue + serialise/propagate pump."""

    def __init__(self, simulator, spec, deliver, rng, name="link"):
        self.simulator = simulator
        self.spec = spec
        self.deliver = deliver
        self.rng = rng
        self.name = name
        self._queue = Store(simulator)
        self.offered = 0
        self.delivered = 0
        self.lost = 0
        self.dropped = 0

    def send(self, packet) -> bool:
        """Enqueue *packet* for transmission; False = tail-dropped."""
        self.offered += 1
        if len(self._queue) >= link_module.QUEUE_PACKETS:
            self.dropped += 1
            return False
        self._queue.put(packet)
        return True

    def pump(self):
        """Kernel process: serialise queued packets onto the wire forever."""
        spec = self.spec
        latency_ns = round(spec.latency_ns)
        while True:
            packet = yield from self._queue.get()
            yield Timeout(round(packet.size_bytes * 8.0 / link_module.GBPS))
            # Draw order is fixed (loss then jitter, only when enabled).
            if spec.loss and self.rng.uniform() < spec.loss:
                self.lost += 1
                continue
            delay_ns = latency_ns
            if spec.jitter_ns:
                delay_ns += round(self.rng.uniform(0.0, spec.jitter_ns))
            self.simulator.spawn(self._arrive(packet, delay_ns), name=f"{self.name}-fly")

    def _arrive(self, packet, delay_ns):
        """Fire-and-forget delivery at the far end of the propagation delay."""
        yield Timeout(delay_ns)
        self.delivered += 1
        self.deliver(packet)
