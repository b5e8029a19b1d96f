"""Network front door: clients, lossy links, gateways and transport.

The cluster layer (:mod:`repro.cluster`) serves a trace delivered straight
into the dispatcher — a fleet with a perfect network.  This package puts the
fleet behind the network real clients actually cross:

* :mod:`repro.net.link` — point-to-point links with serialisation delay,
  propagation latency, seeded jitter/loss, and bounded tail-drop queues.
* :mod:`repro.net.gateway` — gateway hosts that health-probe the cards,
  deduplicate retransmits (exactly-once execution), and shed load through a
  priority-aware token bucket when the fleet is saturated.
* :mod:`repro.net.transport` — the client-side request transport: propagated
  deadlines, per-hop timeouts, capped exponential backoff with seeded
  jitter, and a per-gateway circuit breaker.
* :mod:`repro.net.clients` — the seeded open-loop (trace-paced) client
  population.
* :mod:`repro.net.frontdoor` — wires all of the above onto one fleet and
  one kernel; the entry point experiments use.

Everything runs on the shared simulation kernel and draws randomness only
from :class:`repro.sim.rand.SeededRandom` forks, so every schedule — drops,
retries, backoff jitter and all — is byte-reproducible across processes.
"""

from repro.net.clients import OpenLoopPopulation
from repro.net.frontdoor import FrontDoor
from repro.net.gateway import AdmissionConfig, Gateway, TokenBucket
from repro.net.link import Link, LinkSpec, Packet
from repro.net.transport import (
    CircuitBreaker,
    GatewayRequest,
    Transport,
    TransportConfig,
)

__all__ = [
    "AdmissionConfig",
    "CircuitBreaker",
    "FrontDoor",
    "Gateway",
    "GatewayRequest",
    "Link",
    "LinkSpec",
    "OpenLoopPopulation",
    "Packet",
    "TokenBucket",
    "Transport",
    "TransportConfig",
]
