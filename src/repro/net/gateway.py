"""Gateway hosts: dedup, admission control, card health probing.

A gateway is the fleet's network face.  Requests arrive as packets off an
uplink; the gateway deduplicates retransmits against its in-flight/served
cache (the *exactly-once execution* guarantee the transport's sticky retries
rely on), sheds what the token bucket refuses (priority traffic keeps a
reserved slice of tokens, so bulk work browns out first), fails fast when
its periodic health probe sees no live cards, and otherwise re-stamps the
request onto the fleet timeline and submits it to the dispatcher.  The
fleet's outcome callback routes each terminal verdict back here, and the
gateway answers down its downlink: ``resp`` for a completion (cached for
future retransmits), ``err`` for a rejection/expiry (uncached — a
retransmit deserves a fresh try), ``shed`` for admission refusals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.net.link import Link, Packet
from repro.net.transport import RESPONSE_BYTES, GatewayRequest
from repro.obs import names as _obs_names
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.fleet import Fleet


#: Fraction of the bucket only priority (>0) requests may dip into.  Bulk
#: requests need ``1 + RESERVE_FRACTION * burst`` tokens, so as the bucket
#: drains under overload bulk traffic sheds first and priority traffic
#: browns out last.
RESERVE_FRACTION = 0.2


@dataclass(frozen=True)
class AdmissionConfig:
    """Token-bucket admission with a reserved slice for priority traffic."""

    #: Sustained admission rate (requests per second).
    rate_per_s: float
    #: Bucket depth: how much burst is absorbed before shedding starts.
    burst: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("admission rate must be positive")
        if self.burst < 1:
            raise ValueError("admission burst must be at least one token")


class TokenBucket:
    """Lazily-refilled token bucket with a priority reserve."""

    __slots__ = ("rate_per_ns", "burst", "reserve", "tokens", "refilled_ns")

    def __init__(self, config: AdmissionConfig) -> None:
        self.rate_per_ns = config.rate_per_s / 1e9
        self.burst = float(config.burst)
        self.reserve = RESERVE_FRACTION * config.burst
        self.tokens = self.burst
        self.refilled_ns = 0

    def admit(self, priority: int, now_ns: int) -> bool:
        tokens = min(
            self.burst, self.tokens + (now_ns - self.refilled_ns) * self.rate_per_ns
        )
        self.refilled_ns = now_ns
        need = 1.0 if priority > 0 else 1.0 + self.reserve
        if tokens >= need:
            self.tokens = tokens - 1.0
            return True
        self.tokens = tokens
        return False


#: Cache sentinel: the request reached the dispatcher and has no verdict yet.
_IN_FLIGHT = object()

#: How often a gateway's health probe refreshes its live-card view.
PROBE_PERIOD_NS = 1_000_000


class Gateway:
    """One gateway host: uplink sink, dedup cache, admission, fleet feeder."""

    def __init__(
        self,
        index: int,
        fleet: "Fleet",
        downlink: Link,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.index = index
        self.name = f"gw{index}"
        self.fleet = fleet
        self.stats = fleet.stats
        self.clock = fleet.clock
        self.downlink = downlink
        self.bucket = TokenBucket(admission) if admission is not None else None
        #: request_id -> _IN_FLIGHT or the cached response packet.  Served
        #: entries are kept for the run's lifetime so a straggling retransmit
        #: (in the air when the response left) can never re-execute; at
        #: simulation scale the cache is just the request count in pointers.
        self._entries: Dict[int, object] = {}
        #: Health-probe cache: does the fleet have any live card?  Starts
        #: optimistic; the probe refreshes it every period.
        self.cards_up = True
        self.admitted = 0
        # The dedup instruments ``stats.duplicates_*`` reads: the gateway
        # observes a retransmit, so it writes them.
        registry = fleet.stats.registry
        self._duplicates_suppressed = registry.get(_obs_names.METRIC_DUPLICATES_SUPPRESSED)
        self._duplicates_served = registry.get(_obs_names.METRIC_DUPLICATES_SERVED)
        #: Observability tracer installed by the front door (None = untraced).
        self.tracer = None
        #: request_id -> propagated trace context for in-flight admissions,
        #: so finish() can stamp the verdict packet (traced runs only).
        self._trace_ctx: Dict[int, tuple] = {}

    # ---------------------------------------------------------------- uplink
    def on_request(self, packet: Packet) -> None:
        """Uplink delivery: admit, dedup, shed or fail-fast one request."""
        request: GatewayRequest = packet.body
        request_id = request.request_id
        trace = packet.trace if self.tracer is not None else None
        entry = self._entries.get(request_id)
        if entry is not None:
            if entry is _IN_FLIGHT:
                # Retransmit of a request the fleet is still serving: drop
                # it; the verdict will go out when the fleet finishes.
                self._duplicates_suppressed.value += 1
                self._obs_admission(trace, "duplicate_inflight")
            else:
                # Already served: replay the cached verdict, execute nothing.
                self._duplicates_served.value += 1
                self._obs_admission(trace, "duplicate_served")
                self.downlink.send(entry)
            return
        now = self.clock._now
        if self.bucket is not None and not self.bucket.admit(request.priority, now):
            self.stats.record_shed(request.tenant, request.priority, now)
            self._obs_admission(trace, "shed")
            self.downlink.send(Packet("shed", request_id, RESPONSE_BYTES, None, trace))
            return
        if not self.cards_up:
            # Every probed card is down: answering immediately beats letting
            # the client burn its deadline on a per-hop timeout.
            self._obs_admission(trace, "no_cards")
            self.downlink.send(Packet("err", request_id, RESPONSE_BYTES, "no-cards", trace))
            return
        self._entries[request_id] = _IN_FLIGHT
        self.admitted += 1
        # Re-stamped onto the fleet timeline: arrival is now, here.
        admitted = GatewayRequest(
            request.tenant, request.function, request.payload, now,
            request.deadline_ns, request_id, request.priority, self.index,
        )
        if trace is not None:
            self._obs_admission(trace, "admitted")
            self._trace_ctx[request_id] = trace
            # Hand the context across the fleet boundary: dispatcher spans
            # parent into the transport's client.request root.
            self.fleet._obs_register(admitted, trace[0], trace[1])
        self.fleet.submit(admitted)

    def _obs_admission(self, trace, verdict: str) -> None:
        """Zero-duration admission-verdict marker on a traced request."""
        if trace is None:
            return
        self.tracer.marker(
            _obs_names.SPAN_GW_ADMISSION,
            trace[0],
            trace[1],
            self.clock._now,
            gateway=self.name,
            verdict=verdict,
        )

    # ----------------------------------------------------------- fleet side
    def finish(self, request: GatewayRequest, outcome: str, now_ns: int) -> None:
        """Terminal fleet verdict for a request this gateway admitted."""
        request_id = request.request_id
        if request_id not in self._entries:  # pragma: no cover - invariant
            raise RuntimeError(f"verdict for unknown request {request_id}")
        trace = self._trace_ctx.pop(request_id, None)
        if outcome == "completed":
            response = Packet("resp", request_id, RESPONSE_BYTES, None, trace)
            self._entries[request_id] = response
            self.downlink.send(response)
        else:
            # Rejected or expired: retryable, so forget the request — a
            # retransmit re-enters admission as if new.
            del self._entries[request_id]
            self.downlink.send(Packet("err", request_id, RESPONSE_BYTES, outcome, trace))

    # ----------------------------------------------------------------- probe
    def probe(self):
        """Kernel process: refresh the live-card view every probe period."""
        cards = self.fleet.cards
        fleet = self.fleet
        probe_timeout = Timeout(PROBE_PERIOD_NS)
        while True:
            self.cards_up = any(card.health != "down" for card in cards)
            tracer = self.tracer
            if tracer is not None:
                tracer.marker(
                    _obs_names.SPAN_ORDER_PROBE,
                    tracer.new_trace_id(),
                    None,
                    self.clock._now,
                    gateway=self.name,
                    cards_up=self.cards_up,
                )
            if fleet.is_idle:
                return
            yield probe_timeout
