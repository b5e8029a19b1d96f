"""Point-to-point network links: a bounded egress queue in front of a wire.

A :class:`Link` models one direction of a client↔gateway path with the four
costs that matter to a front door: serialisation time (packet size over link
bandwidth), propagation latency, seeded jitter, and loss.  The egress queue
is bounded — a sender faster than the link tail-drops instead of building an
unbounded backlog, which is what makes overload produce *drops the transport
can react to* rather than silently-growing queueing delay.

The wire is FIFO and store-and-forward — packets serialise one at a time and
several can be "in the air" while the next one serialises — so a packet's
whole trip is known the instant it is sent.  :meth:`Link.send` does that
arithmetic: no process drains the queue and none is spawned per packet, so
the only kernel event a packet costs is its arrival.  That entry is pushed
straight onto the kernel heap with the ``(time, seq)`` key ``schedule_call``
would give it — its time is a whole-nanosecond int by construction — and it
carries the send instant, which the traced transit span starts at.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Deque

from repro.obs import names as _obs_names
from repro.sim.kernel import Simulator
from repro.sim.rand import SeededRandom

#: Egress queue bound in packets; a full queue tail-drops.  The bound is on
#: packets *waiting*: the one on the wire is not in the queue.
QUEUE_PACKETS = 64
#: Serialisation bandwidth in Gbit/s (= bits per nanosecond).
GBPS = 10.0


@dataclass(frozen=True)
class LinkSpec:
    """The physics of one link direction.

    Durations are whole nanoseconds; a fractional value is tolerated and
    rounded once, where :class:`Link` consumes the spec.
    """

    #: One-way propagation delay (ns).
    latency_ns: int = 20_000
    #: Maximum extra per-packet delay, drawn uniformly in [0, jitter_ns].
    jitter_ns: int = 0
    #: Per-packet loss probability (a lost packet still occupies the wire).
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ValueError("link latency cannot be negative")
        if self.jitter_ns < 0:
            raise ValueError("link jitter cannot be negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("link loss must be a probability below 1")


class Packet:
    """One message on a link: a request going up or a verdict coming down.

    ``kind`` is ``"req"`` (body: the :class:`~repro.net.transport.
    GatewayRequest`), ``"resp"`` (completed), ``"shed"`` (admission refused —
    backpressure, not failure) or ``"err"`` (body: the failure reason).
    """

    __slots__ = ("kind", "request_id", "size_bytes", "body", "trace")

    def __init__(
        self,
        kind: str,
        request_id: int,
        size_bytes: int,
        body=None,
        trace=None,
    ) -> None:
        self.kind = kind
        self.request_id = request_id
        self.size_bytes = size_bytes
        self.body = body
        #: Propagated trace context, ``(trace_id, parent_span_id)`` or None —
        #: the side channel the links and gateways read; stamped by whoever
        #: sends the packet on a traced request.
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet({self.kind!r}, id={self.request_id}, {self.size_bytes}B)"


class Link:
    """One direction of a path: bounded egress queue + FIFO wire."""

    def __init__(
        self,
        simulator: Simulator,
        spec: LinkSpec,
        deliver: Callable[[Packet], None],
        rng: SeededRandom,
        name: str = "link",
    ) -> None:
        self.simulator = simulator
        self.spec = spec
        self.deliver = deliver
        self.name = name
        # Bound once, so a packet costs one clock read, one call per draw
        # and one heap push for its arrival.
        self._clock = simulator.clock
        self._heap = simulator._heap
        self._next_seq = simulator._next_seq
        self._random = rng.random
        self._latency_ns = round(spec.latency_ns)
        #: When the wire finishes serialising the last accepted packet.
        self._wire_free_ns = 0
        #: The egress queue, as the instants its entries leave it: the
        #: serialise-start times of accepted packets not yet on the wire.
        self._waiting: Deque[int] = deque()
        # Traffic accounting: offered = sent() calls, and every offered
        # packet ends up in exactly one of delivered / lost / dropped.
        self.offered = 0
        self.delivered = 0
        self.lost = 0
        self.dropped = 0
        #: Observability tracer installed by the front door (None = untraced).
        self.tracer = None

    def send(self, packet: Packet) -> bool:
        """Put *packet* on the link and schedule its arrival; False = tail-dropped.

        A packet whose serialisation starts at ``t`` has left the queue at
        ``t``: a send at that exact instant does not count it against
        :data:`QUEUE_PACKETS`.
        """
        self.offered += 1
        spec = self.spec
        now = self._clock._now
        waiting = self._waiting
        if waiting:
            while waiting and waiting[0] <= now:
                waiting.popleft()
            if len(waiting) >= QUEUE_PACKETS:
                self.dropped += 1
                return False
        start = self._wire_free_ns
        if start > now:
            waiting.append(start)
        else:
            start = now
        done = self._wire_free_ns = start + round(packet.size_bytes * 8.0 / GBPS)
        # Draw order is fixed (loss then jitter, only when enabled) so a
        # spec change toggles exactly one draw per packet; per link, send
        # order is serialise order, so drawing here draws in wire order.
        # ``random()`` is ``uniform()`` and ``j * random()`` is
        # ``uniform(0.0, j)``, bit for bit.
        if spec.loss and self._random() < spec.loss:
            self.lost += 1  # it still occupied the wire
            return True
        if spec.jitter_ns:
            done += round(spec.jitter_ns * self._random())
        heappush(self._heap, (done + self._latency_ns, self._next_seq(), self._arrive, packet, now))
        return True

    def _arrive(self, packet: Packet, sent_ns: int) -> None:
        """Delivery at the far end: serialised, jittered and propagated.

        *sent_ns* rides in the queue entry, not on the packet: a gateway
        replays one cached verdict packet to every retransmit, and two of
        its sends can be in the air at once."""
        self.delivered += 1
        tracer = self.tracer
        if tracer is not None and packet.trace is not None:
            trace_id, parent_id = packet.trace
            tracer.record(
                _obs_names.SPAN_LINK_TRANSIT,
                trace_id,
                parent_id,
                sent_ns,
                self._clock._now,
                link=self.name,
                kind=packet.kind,
            )
        self.deliver(packet)
