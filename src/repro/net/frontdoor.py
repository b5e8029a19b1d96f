"""FrontDoor: one object that wires clients → links → gateways → fleet.

The front door owns the net layer's plumbing on the fleet's own kernel:
per-gateway uplink/downlink :class:`~repro.net.link.Link` pairs, the
:class:`~repro.net.gateway.Gateway` hosts, one
:class:`~repro.net.transport.Transport` shared by every client population,
the request-id counter, the tenant→priority map and the deadline budget.
It registers each gateway's health probe as a fleet service and installs two
hooks on the fleet:

* ``fleet.on_request_outcome`` — routes each terminal verdict (completed /
  rejected / expired) back to the admitting gateway's downlink.
* ``fleet.idle_hook`` — vetoes fleet idleness while clients are still
  sending or requests are still in flight, so periodic services
  (scrubbers, healers, fault injectors, gateway probes) keep running
  between packets instead of self-terminating at the first quiet instant.

A fleet with no front door installed behaves exactly as before — both hooks
default to ``None`` and every pre-network schedule digest is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.fleet import Fleet
from repro.net.gateway import AdmissionConfig, Gateway
from repro.net.link import Link, LinkSpec
from repro.net.transport import GatewayRequest, Transport, TransportConfig
from repro.sim.clock import as_ns
from repro.sim.rand import SeededRandom
from repro.workloads.multitenant import FleetRequest


class FrontDoor:
    """The network stack in front of one fleet."""

    def __init__(
        self,
        fleet: Fleet,
        rng: SeededRandom,
        gateways: int = 1,
        uplink: Optional[LinkSpec] = None,
        transport: Optional[TransportConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        priorities: Optional[Dict[str, int]] = None,
        deadline_ns: Optional[int] = None,
    ) -> None:
        if gateways < 1:
            raise ValueError("a front door needs at least one gateway")
        if deadline_ns is not None and deadline_ns <= 0:
            raise ValueError("the deadline budget must be positive")
        self.fleet = fleet
        uplink = uplink if uplink is not None else LinkSpec()
        #: Per-tenant admission class (default 0 = bulk; >0 sheds last).
        self.priorities = dict(priorities) if priorities else {}
        #: Per-request deadline budget from first send (None = no deadlines).
        self.deadline_ns = None if deadline_ns is None else as_ns(deadline_ns)
        self.gateways: List[Gateway] = []
        self.uplinks: List[Link] = []
        self.downlinks: List[Link] = []
        for index in range(gateways):
            down = Link(
                fleet.simulator,
                uplink,
                None,  # the transport's on_response, once it exists (below)
                rng.fork(f"net.link.down{index}"),
                name=f"down{index}",
            )
            gateway = Gateway(index, fleet, down, admission=admission)
            up = Link(
                fleet.simulator,
                uplink,
                gateway.on_request,
                rng.fork(f"net.link.up{index}"),
                name=f"up{index}",
            )
            fleet.add_service(f"net-probe-{gateway.name}", gateway.probe)
            self.gateways.append(gateway)
            self.uplinks.append(up)
            self.downlinks.append(down)
        self.transport = Transport(
            fleet.simulator,
            fleet.stats,
            self.uplinks,
            transport if transport is not None else TransportConfig(),
            rng.fork("net.backoff"),
        )
        for down in self.downlinks:
            down.deliver = self.transport.on_response
        # Observability: the fleet carries the Observability object; the
        # front door threads its tracer through every net-layer hop and
        # contributes the net-side callback gauges.
        tracer = fleet._tracer
        if tracer is not None:
            self.transport.tracer = tracer
            for link in self.uplinks + self.downlinks:
                link.tracer = tracer
            for gateway in self.gateways:
                gateway.tracer = tracer
            self._register_net_gauges(fleet.obs.registry)
        self._next_id = 0
        self._populations: List[object] = []
        #: Clients started and not yet done sending (see ``_client_ended``).
        self._live_clients = 0
        fleet.on_request_outcome = self._on_fleet_outcome
        fleet.idle_hook = self._net_idle

    # --------------------------------------------------------- observability
    def _register_net_gauges(self, registry) -> None:
        """Expose live net-layer state as callback gauges (read at snapshot)."""
        from repro.obs import names

        links = self.uplinks + self.downlinks
        gateways = self.gateways
        breakers = self.transport.breakers

        def _link_sum(field):
            return lambda: sum(getattr(link, field) for link in links)

        registry.gauge(names.GAUGE_LINK_OFFERED, fn=_link_sum("offered"))
        registry.gauge(names.GAUGE_LINK_DELIVERED, fn=_link_sum("delivered"))
        registry.gauge(names.GAUGE_LINK_LOST, fn=_link_sum("lost"))
        registry.gauge(names.GAUGE_LINK_DROPPED, fn=_link_sum("dropped"))
        registry.gauge(
            names.GAUGE_GATEWAY_ADMITTED,
            fn=lambda: sum(gateway.admitted for gateway in gateways),
        )
        registry.gauge(
            names.GAUGE_BREAKERS_OPEN,
            fn=lambda: sum(1 for breaker in breakers if breaker.state == "open"),
        )

    # ------------------------------------------------------------- requests
    def launch(self, base: FleetRequest) -> None:
        """Stamp a workload request into a network request *now* and hand it
        to the transport.

        Called by a population at the instant it launches the request: the
        id comes off the shared counter, the priority from the tenant map,
        the deadline from the budget, and the home-gateway hint round-robins
        over the gateways.
        """
        request_id = self._next_id
        self._next_id = request_id + 1
        now = self.fleet.clock._now
        deadline = self.deadline_ns
        self.transport.submit(
            GatewayRequest(
                base.tenant, base.function, base.payload, now,
                None if deadline is None else now + deadline, request_id,
                self.priorities.get(base.tenant, 0), request_id % len(self.gateways),
            )
        )

    def _on_fleet_outcome(self, request, outcome: str, now_ns: int) -> None:
        if isinstance(request, GatewayRequest):
            self.gateways[request.gateway_index].finish(request, outcome, now_ns)

    def _net_idle(self) -> bool:
        """Idle veto for the fleet: traffic in flight means *not* idle."""
        return not self.transport.in_flight and not self._live_clients

    def _client_ended(self) -> None:
        """A population's client has sent everything it ever will."""
        self._live_clients -= 1

    # ------------------------------------------------------------------ run
    def add_population(self, population) -> None:
        """Queue a client population for the next :meth:`run`."""
        self._populations.append(population)

    def run(self, until_ns: Optional[int] = None):
        """Serve every queued population to quiescence; returns fleet stats."""
        if not self._populations:
            raise ValueError("add at least one client population before run()")
        fleet = self.fleet
        fleet._spawn_services()
        for population in self._populations:
            self._live_clients += population.start(self)
        self._populations = []
        fleet.simulator.run(until_ns)
        # Same end-of-run observability settlement as Fleet.run (this path
        # drives the simulator itself, so the fleet's own hook never fires);
        # idle-guarded for the same reason — a truncated run still has
        # traces in flight that the drain will complete.
        obs = fleet.obs
        if obs is not None and fleet.is_idle:
            obs.finish(fleet.clock.now)
        return fleet.stats

    # ------------------------------------------------------------- forensics
    def link_summary(self) -> Dict[str, int]:
        """Aggregate packet accounting across every link, both directions."""
        totals = {"offered": 0, "delivered": 0, "lost": 0, "dropped": 0}
        for link in self.uplinks + self.downlinks:
            totals["offered"] += link.offered
            totals["delivered"] += link.delivered
            totals["lost"] += link.lost
            totals["dropped"] += link.dropped
        return totals
