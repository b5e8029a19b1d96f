"""Seeded client populations: who generates the front door's traffic.

Two standard shapes:

* :class:`OpenLoopPopulation` — trace-paced (Poisson or bursty, whatever the
  workload generator produced): requests launch at their trace arrival
  instants whether or not earlier ones finished.  Open loops are what
  overload a system — demand does not slow down when the fleet does — so
  this is the population the E12 overload sweep uses.  Pacing reuses the
  fleet's own :func:`repro.cluster.arrivals.open_arrivals` generator.
* :class:`ClosedLoopPopulation` — N clients, each cycling request → wait for
  verdict → exponential think time.  Closed loops self-throttle (a slow
  fleet slows its own offered load), which is the latency-probing population.

Both draw their requests from a :class:`~repro.workloads.multitenant.
FleetTrace` (the deterministic tenant-mix machinery) and stamp them into
:class:`~repro.net.transport.GatewayRequest` via the front door, which owns
the request-id counter, priority map and deadline budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.cluster.arrivals import open_arrivals
from repro.sim.kernel import Timeout, WaitEvent
from repro.sim.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.frontdoor import FrontDoor
    from repro.workloads.multitenant import FleetTrace


class OpenLoopPopulation:
    """Launch the trace's requests at their arrival instants, fire-and-forget."""

    def __init__(self, trace: "FleetTrace", name: str = "open-clients") -> None:
        self.trace = trace
        self.name = name

    def processes(self, frontdoor: "FrontDoor") -> List[Tuple[str, object]]:
        transport = frontdoor.transport
        make_request = frontdoor.make_request

        def launch(request):
            transport.submit(make_request(request))

        return [
            (
                self.name,
                open_arrivals(self.trace, frontdoor.fleet.clock, launch),
            )
        ]


class ClosedLoopPopulation:
    """*clients* synchronous clients with exponential think time.

    Client *i* draws requests ``i, i + clients, i + 2·clients, …`` from the
    trace (round-robin partition, wrapping if it runs past the end), so the
    same trace drives both population shapes and the tenant mix survives the
    partition.  Trace arrival times are ignored — a closed loop's timing is
    its own completions plus think time.
    """

    def __init__(
        self,
        trace: "FleetTrace",
        clients: int,
        requests_per_client: int,
        think_ns: float,
        rng: SeededRandom,
        name: str = "closed-clients",
    ) -> None:
        if clients < 1:
            raise ValueError("a closed-loop population needs at least one client")
        if requests_per_client < 1:
            raise ValueError("each client must issue at least one request")
        if think_ns < 0:
            raise ValueError("think time cannot be negative")
        if not len(trace):
            raise ValueError("cannot drive clients from an empty trace")
        self.trace = trace
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.think_ns = think_ns
        self.rng = rng
        self.name = name

    def processes(self, frontdoor: "FrontDoor") -> List[Tuple[str, object]]:
        return [
            (f"{self.name}-{index}", self._client(frontdoor, index))
            for index in range(self.clients)
        ]

    def _client(self, frontdoor: "FrontDoor", index: int):
        rng = self.rng.fork(f"client-{index}")
        transport = frontdoor.transport
        trace = self.trace
        trace_len = len(trace)
        think_ns = self.think_ns
        for sequence in range(self.requests_per_client):
            base = trace[(index + sequence * self.clients) % trace_len]
            request = frontdoor.make_request(base)
            done = WaitEvent(name=f"net-done-{request.request_id}")
            transport.submit(request, done)
            yield done
            if think_ns:
                yield Timeout(round(rng.exponential(think_ns)))
