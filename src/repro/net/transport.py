"""Client-side request transport: deadlines, retries, circuit breaking.

Every logical client request gets one :class:`_Pending` record for its whole
lifetime.  The transport sends an attempt up a gateway link, schedules the
attempt's per-hop timeout, and reacts to whichever comes first: a response
packet (complete), a shed packet (back off and retry — backpressure is not a
gateway failure), an error packet or the timeout (count a failure against
the gateway's circuit breaker, then retry with capped exponential backoff
and seeded jitter).  A timeout and a backoff are one kernel queue entry each
on a plain method that first checks it is still the current attempt — there
is no process per attempt.  The timeout, armed on every send, is pushed
straight onto the kernel heap with the ``(time, seq)`` key ``schedule_call``
would give it (its time is an int by construction: ``now`` plus the rounded
timeout, or the whole-nanosecond deadline); the rarer backoff goes through
``schedule_call``.  The propagated ``deadline_ns`` bounds everything: an
attempt is never sent, and a backoff never scheduled, past the deadline.

Retransmits are *sticky*: once a request has been sent to a gateway, every
retry returns to that same gateway so its dedup cache can guarantee the
request executes at most once.  Gateway failover happens at first send only
(the home-gateway scan skips breaker-open gateways); if the chosen gateway's
breaker opens mid-retry the request fails fast rather than risking a second
execution elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.link import Link, Packet
from repro.obs import names as _obs_names
from repro.sim.kernel import Simulator
from repro.sim.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.stats import FleetStatistics


#: Wire overhead per request packet beyond the payload (headers, function
#: name, deadline); response/shed/err packets are header-sized.
REQUEST_HEADER_BYTES = 64
RESPONSE_BYTES = 64
#: First backoff (ns); doubles per retry up to ``backoff_cap_ns``.
BACKOFF_BASE_NS = 100_000
#: Jitter fraction: each backoff is scaled by 1 + jitter * U[0, 1).
BACKOFF_JITTER = 0.5


class GatewayRequest:
    """A fleet request as the network sees it.

    :class:`~repro.workloads.multitenant.FleetRequest`'s fields, in its
    order, then the transport identity (``request_id`` — what dedup and
    response routing key on), the admission class (``priority`` — higher
    sheds later) and the serving gateway's index (stamped by the gateway at
    admission so the fleet's outcome callback can find the right downlink).
    The fleet reads a request by attribute only.  Two are built per request,
    so this is a ``__slots__`` record with a plain ``__init__``: a frozen
    dataclass sets each field through ``object.__setattr__``, about five
    times the cost.  It has no value equality or hash.
    """

    __slots__ = (
        "tenant", "function", "payload", "arrival_ns", "deadline_ns",
        "request_id", "priority", "gateway_index",
    )

    def __init__(
        self, tenant: str, function: str, payload: bytes, arrival_ns: int,
        deadline_ns: Optional[int] = None, request_id: int = -1, priority: int = 0,
        gateway_index: int = 0,
    ) -> None:
        self.tenant = tenant
        self.function = function
        self.payload = payload
        self.arrival_ns = arrival_ns
        self.deadline_ns = deadline_ns
        self.request_id = request_id
        self.priority = priority
        self.gateway_index = gateway_index


@dataclass(frozen=True)
class TransportConfig:
    """Retry/timeout/breaker policy for one client population's transport.

    Durations are whole nanoseconds; a fractional value is tolerated and
    rounded once, where :class:`Transport` consumes the config.
    """

    #: Per-attempt response timeout (ns).
    per_hop_timeout_ns: int = 2_000_000
    #: Retransmit budget after the first attempt; 0 = fail on first loss.
    max_retries: int = 3
    #: Longest backoff (ns): the one :data:`BACKOFF_BASE_NS` doubles up to.
    backoff_cap_ns: int = 2_000_000
    #: Consecutive failures that open a gateway's circuit breaker.
    breaker_threshold: int = 8
    #: How long an open breaker rejects before probing again (ns).
    breaker_open_ns: int = 10_000_000

    def __post_init__(self) -> None:
        if self.per_hop_timeout_ns <= 0:
            raise ValueError("per-hop timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_cap_ns < BACKOFF_BASE_NS:
            raise ValueError("backoff cap must be at least the base")
        if self.breaker_threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if self.breaker_open_ns <= 0:
            raise ValueError("breaker open window must be positive")


class CircuitBreaker:
    """Per-gateway closed → open → half-open failure gate."""

    __slots__ = ("threshold", "open_ns", "state", "failures", "opened_at_ns")

    def __init__(self, threshold: int, open_ns: int) -> None:
        self.threshold = threshold
        self.open_ns = open_ns
        self.state = "closed"
        self.failures = 0
        self.opened_at_ns = 0

    def allow(self, now_ns: int) -> bool:
        """May an attempt be sent now?  Open breakers admit one probe per
        open window (half-open); the probe's outcome decides what follows."""
        state = self.state
        if state == "closed":
            return True
        if state == "open" and now_ns - self.opened_at_ns >= self.open_ns:
            self.state = "half-open"
            return True
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, now_ns: int) -> bool:
        """Count a failure; True when this one opens (or re-opens) the gate."""
        if self.state == "half-open":
            self.state = "open"
            self.opened_at_ns = now_ns
            return True
        self.failures += 1
        if self.state == "closed" and self.failures >= self.threshold:
            self.state = "open"
            self.opened_at_ns = now_ns
            return True
        return False


class _Pending:
    """Lifetime record of one logical request across all its attempts."""

    __slots__ = (
        "request",
        "first_send_ns",
        "attempt",
        "gateway",
        "done",
        "trace",
        "attempt_sent_ns",
        "backoff_from_ns",
    )

    def __init__(self, request: GatewayRequest) -> None:
        self.request = request
        self.first_send_ns = 0
        #: Attempt counter; bumping it stale-izes every scheduled timeout and
        #: backoff entry of earlier attempts.
        self.attempt = 0
        #: Sticky serving gateway (None until the first send chooses one).
        self.gateway: Optional[int] = None
        self.done = False
        #: ``(trace_id, root_span_id)`` when this request is traced, else
        #: None — the trace id *is* the transport request id.
        self.trace = None
        #: When the current attempt's packet went up (its span's start).
        self.attempt_sent_ns = 0
        #: When the current backoff began (its span's start).
        self.backoff_from_ns = 0


class Transport:
    """The retry/deadline/breaker state machine in front of the uplinks."""

    def __init__(
        self,
        simulator: Simulator,
        stats: "FleetStatistics",
        uplinks: List["Link"],
        config: TransportConfig,
        rng: SeededRandom,
    ) -> None:
        if not uplinks:
            raise ValueError("a transport needs at least one gateway uplink")
        self.clock = simulator.clock
        self._schedule_call = simulator.schedule_call
        self._heap = simulator._heap
        self._next_seq = simulator._next_seq
        self.stats = stats
        self.uplinks = uplinks
        self.config = config
        self.rng = rng
        self._hop_timeout_ns = round(config.per_hop_timeout_ns)
        self.breakers = [
            CircuitBreaker(config.breaker_threshold, round(config.breaker_open_ns))
            for _ in uplinks
        ]
        # The instruments ``stats.net_*`` reads: the transport observes these
        # facts, so it writes them where they happen.
        instrument = stats.registry.get
        self._requests = instrument(_obs_names.METRIC_NET_REQUESTS)
        self._attempts = instrument(_obs_names.METRIC_NET_ATTEMPTS)
        self._retries = instrument(_obs_names.METRIC_NET_RETRIES)
        self._timeouts = instrument(_obs_names.METRIC_NET_TIMEOUTS)
        self._fast_fails = instrument(_obs_names.METRIC_BREAKER_FAST_FAILS)
        self._pending: Dict[int, _Pending] = {}
        #: Observability tracer installed by the front door (None = untraced).
        self.tracer = None

    @property
    def in_flight(self) -> int:
        """Logical requests not yet completed or finally failed."""
        return len(self._pending)

    # ---------------------------------------------------------------- submit
    def submit(self, request: GatewayRequest) -> None:
        """Take ownership of one logical request until it completes or dies."""
        if request.request_id in self._pending:
            raise ValueError(f"duplicate request_id {request.request_id}")
        self._requests.value += 1
        self.stats.per_priority_requests[request.priority] += 1
        pending = _Pending(request)
        pending.first_send_ns = self.clock._now
        tracer = self.tracer
        if tracer is not None:
            # The trace id is the request id; the root client.request span is
            # recorded at the terminal verdict with this pre-allocated id.
            pending.trace = (request.request_id, tracer.next_span_id())
        self._pending[request.request_id] = pending
        self._send(pending)

    def _send(self, pending: _Pending) -> None:
        now = self.clock._now
        request = pending.request
        deadline = request.deadline_ns
        if deadline is not None and now > deadline:
            self._fail(pending, "deadline")
            return
        breakers = self.breakers
        gateway = pending.gateway
        if gateway is None:
            # First send: the home gateway when its breaker is closed, else
            # scan on from the home hint for a breaker-admissible one.  This
            # is the only point of gateway failover — see the module
            # docstring for why retries are sticky.
            count = len(breakers)
            gateway = home = request.gateway_index % count
            if breakers[home].state != "closed":
                for step in range(count):
                    gateway = (home + step) % count
                    if breakers[gateway].allow(now):
                        break
                else:
                    self._fast_fails.value += 1
                    self._fail(pending, "breaker-open")
                    return
            pending.gateway = gateway
        elif not breakers[gateway].allow(now):
            self._fast_fails.value += 1
            self._fail(pending, "breaker-open")
            return
        attempt = pending.attempt
        self._attempts.value += 1
        if attempt:
            self._retries.value += 1
        if pending.trace is not None:
            pending.attempt_sent_ns = now
        size_bytes = REQUEST_HEADER_BYTES + len(request.payload)
        self.uplinks[gateway].send(
            Packet("req", request.request_id, size_bytes, request, pending.trace)
        )
        expiry_ns = now + self._hop_timeout_ns
        if deadline is not None and deadline < expiry_ns:
            expiry_ns = deadline
        heappush(self._heap, (expiry_ns, self._next_seq(), self._on_timeout, pending, attempt))

    def _on_timeout(self, pending: _Pending, attempt: int) -> None:
        if pending.done or pending.attempt != attempt:
            return  # a response or a newer attempt superseded this timeout
        self._timeouts.value += 1
        self._obs_attempt_end(pending, "timeout")
        self._count_gateway_failure(pending)
        self._retry_or_fail(pending, "timeout")

    # ------------------------------------------------------------- responses
    def on_response(self, packet: "Packet") -> None:
        """Downlink delivery: a gateway's verdict for one attempt."""
        pending = self._pending.get(packet.request_id)
        if pending is None or pending.done:
            return  # verdict for an attempt that already resolved
        kind = packet.kind
        if kind != "resp":
            # A shed is backpressure, not gateway failure: no breaker debit,
            # just back off and try again inside the deadline budget.
            reason = "shed" if kind == "shed" else str(packet.body)
            self._obs_attempt_end(pending, reason)
            if kind == "err":
                self._count_gateway_failure(pending)
            self._retry_or_fail(pending, reason)
            return
        pending.done = True
        request = pending.request
        now = self.clock._now
        self.stats.record_net_completion(
            request.request_id,
            request.tenant,
            request.function,
            request.priority,
            pending.first_send_ns,
            now,
            pending.attempt + 1,
        )
        breaker = self.breakers[pending.gateway]
        if breaker.failures or breaker.state != "closed":
            breaker.record_success()
        del self._pending[request.request_id]
        if pending.trace is not None:
            self._obs_attempt_end(pending, "resp")
            self._obs_root_end(pending, "completed")

    # --------------------------------------------------------- observability
    def _obs_attempt_end(self, pending: _Pending, verdict: str) -> None:
        """Close the current attempt's span at its verdict (or timeout)."""
        trace = pending.trace
        if trace is None:
            return
        self.tracer.record(
            _obs_names.SPAN_NET_ATTEMPT,
            trace[0],
            trace[1],
            pending.attempt_sent_ns,
            self.clock._now,
            attempt=pending.attempt,
            gateway=pending.gateway,
            verdict=verdict,
        )

    def _obs_root_end(self, pending: _Pending, outcome: str) -> None:
        """Record the whole-request root span (the request is traced)."""
        trace = pending.trace
        request = pending.request
        self.tracer.record(
            _obs_names.SPAN_CLIENT_REQUEST,
            trace[0],
            None,
            pending.first_send_ns,
            self.clock._now,
            span_id=trace[1],
            tenant=request.tenant,
            function=request.function,
            priority=request.priority,
            outcome=outcome,
            attempts=pending.attempt + 1,
        )

    # ---------------------------------------------------------------- retry
    def _count_gateway_failure(self, pending: _Pending) -> None:
        gateway = pending.gateway
        if gateway is not None and self.breakers[gateway].record_failure(
            self.clock._now
        ):
            self.stats.record_breaker_open(f"gw{gateway}", self.clock.now)

    def _retry_or_fail(self, pending: _Pending, reason: str) -> None:
        pending.attempt += 1
        if pending.attempt > self.config.max_retries:
            self._fail(pending, reason)
            return
        backoff_ns = min(self.config.backoff_cap_ns, BACKOFF_BASE_NS * (2.0 ** (pending.attempt - 1)))
        backoff_ns = round(backoff_ns * (1.0 + BACKOFF_JITTER * self.rng.uniform()))
        now = self.clock._now
        deadline = pending.request.deadline_ns
        if deadline is not None and now + backoff_ns >= deadline:
            self._fail(pending, "deadline")
            return
        pending.backoff_from_ns = now
        self._schedule_call(now + backoff_ns, self._resend, pending, pending.attempt)

    def _resend(self, pending: _Pending, attempt: int) -> None:
        if pending.done or pending.attempt != attempt:
            return
        trace = pending.trace
        if trace is not None:
            # Recorded here (not at scheduling time) so a backoff superseded
            # by a late verdict leaves no span dangling past the root.
            self.tracer.record(
                _obs_names.SPAN_NET_BACKOFF,
                trace[0],
                trace[1],
                pending.backoff_from_ns,
                self.clock._now,
                attempt=attempt,
            )
        self._send(pending)

    def _fail(self, pending: _Pending, reason: str) -> None:
        pending.done = True
        request = pending.request
        self.stats.record_net_failure(
            request.request_id,
            request.tenant,
            request.priority,
            reason,
            self.clock.now,
        )
        del self._pending[request.request_id]
        if pending.trace is not None:
            self._obs_root_end(pending, reason)
