"""Point-to-point network links as bounded kernel queues.

A :class:`Link` models one direction of a client↔gateway path with the four
costs that matter to a front door: serialisation time (packet size over link
bandwidth), propagation latency, seeded jitter, and loss.  The egress queue
is bounded — a sender faster than the link tail-drops instead of building an
unbounded backlog, which is what makes overload produce *drops the transport
can react to* rather than silently-growing queueing delay.

The pump process serialises packets one at a time (yielding the kernel for
each packet's wire time), then hands the packet to a fire-and-forget arrival
process after the propagation delay, so several packets can be "in the air"
concurrently while the next one serialises — the standard
store-and-forward pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs import names as _obs_names
from repro.sim.kernel import Simulator, Store, Timeout
from repro.sim.rand import SeededRandom


@dataclass(frozen=True)
class LinkSpec:
    """The physics of one link direction.

    Durations are whole nanoseconds; a fractional value is tolerated and
    rounded once, where :meth:`Link.pump` consumes the spec.
    """

    #: One-way propagation delay (ns).
    latency_ns: int = 20_000
    #: Serialisation bandwidth in Gbit/s (= bits per nanosecond).
    gbps: float = 10.0
    #: Maximum extra per-packet delay, drawn uniformly in [0, jitter_ns].
    jitter_ns: int = 0
    #: Per-packet loss probability (drawn after serialisation).
    loss: float = 0.0
    #: Egress queue bound in packets; a full queue tail-drops.
    queue_packets: int = 64

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ValueError("link latency cannot be negative")
        if self.gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.jitter_ns < 0:
            raise ValueError("link jitter cannot be negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("link loss must be a probability below 1")
        if self.queue_packets < 1:
            raise ValueError("link queue must hold at least one packet")


class Packet:
    """One message on a link: a request going up or a verdict coming down.

    ``kind`` is ``"req"`` (body: the :class:`~repro.net.transport.
    GatewayRequest`), ``"resp"`` (completed), ``"shed"`` (admission refused —
    backpressure, not failure) or ``"err"`` (body: the failure reason).
    """

    __slots__ = ("kind", "request_id", "size_bytes", "body", "trace", "sent_ns")

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
        #: send() instant, for the delivered packet's transit span.
        self.sent_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet({self.kind!r}, id={self.request_id}, {self.size_bytes}B)"


class Link:
    """One direction of a path: bounded queue + serialise/propagate pump."""

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
        self.rng = rng
        self.name = name
        self._queue = Store(simulator, name=f"{name}-queue")
        # Traffic accounting: offered = sent() calls, and every offered
        # packet ends up in exactly one of delivered / lost / dropped.
        self.offered = 0
        self.delivered = 0
        self.lost = 0
        self.dropped = 0
        #: Observability tracer installed by the front door (None = untraced).
        self.tracer = None

    def send(self, packet: Packet) -> bool:
        """Enqueue *packet* for transmission; False = tail-dropped."""
        self.offered += 1
        if len(self._queue) >= self.spec.queue_packets:
            self.dropped += 1
            return False
        if self.tracer is not None and packet.trace is not None:
            packet.sent_ns = self.simulator.clock._now
        self._queue.put(packet)
        return True

    def pump(self):
        """Kernel process: serialise queued packets onto the wire forever."""
        spec = self.spec
        gbps = spec.gbps
        loss = spec.loss
        latency_ns = round(spec.latency_ns)
        jitter_ns = spec.jitter_ns
        rng = self.rng
        spawn = self.simulator.spawn
        get_packet = self._queue.get()
        serialize_timeout = Timeout(0)
        while True:
            packet = yield get_packet
            serialize_timeout.delay_ns = round(packet.size_bytes * 8.0 / gbps)
            yield serialize_timeout
            # Draw order is fixed (loss then jitter, only when enabled) so a
            # spec change toggles exactly one draw per packet.
            if loss and rng.uniform() < loss:
                self.lost += 1
                continue
            delay_ns = latency_ns
            if jitter_ns:
                delay_ns += round(rng.uniform(0.0, jitter_ns))
            spawn(self._arrive(packet), name=f"{self.name}-fly", delay_ns=delay_ns)

    def _arrive(self, packet: Packet):
        """Fire-and-forget delivery at the far end of the propagation delay."""
        self.delivered += 1
        tracer = self.tracer
        if tracer is not None and packet.trace is not None:
            trace_id, parent_id = packet.trace
            tracer.record(
                _obs_names.SPAN_LINK_TRANSIT,
                trace_id,
                parent_id,
                packet.sent_ns,
                self.simulator.clock._now,
                link=self.name,
                kind=packet.kind,
            )
        self.deliver(packet)
        return
        yield  # pragma: no cover - makes this a (never-resumed) process
