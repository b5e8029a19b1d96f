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
FleetTrace` (the deterministic tenant-mix machinery) and hand each to
:meth:`~repro.net.frontdoor.FrontDoor.launch`, which stamps it into a
:class:`~repro.net.transport.GatewayRequest` (the front door owns the
request-id counter, priority map and deadline budget) and submits it.
``start`` queues a population's clients on the kernel and returns how many it
started; each calls ``frontdoor._client_ended`` once it has nothing left to
send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.arrivals import open_arrivals
from repro.sim.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.frontdoor import FrontDoor
    from repro.workloads.multitenant import FleetTrace


class OpenLoopPopulation:
    """Launch the trace's requests at their arrival instants, fire-and-forget."""

    def __init__(self, trace: "FleetTrace") -> None:
        self.trace = trace

    def start(self, frontdoor: "FrontDoor") -> int:
        fleet = frontdoor.fleet
        fleet.simulator.spawn(
            open_arrivals(self.trace, fleet.clock, frontdoor.launch),
            then=frontdoor._client_ended,
        )
        return 1


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

    def start(self, frontdoor: "FrontDoor") -> int:
        simulator = frontdoor.fleet.simulator
        for index in range(self.clients):
            simulator.schedule_call(frontdoor.fleet.clock._now, _Client(self, frontdoor, index).send)
        return self.clients


class _Client:
    """One closed-loop client as three kernel entries: :meth:`send` sends a
    request, its verdict queues :meth:`wake` at the same instant, which
    thinks and queues the next :meth:`send`."""

    def __init__(self, population: ClosedLoopPopulation, frontdoor: "FrontDoor", index: int):
        self.population = population
        self.frontdoor = frontdoor
        self.index = index
        self.sent = 0
        self.rng = population.rng.fork(f"client-{index}")
        self.simulator = frontdoor.fleet.simulator

    def send(self, _=None, __=None) -> None:
        population = self.population
        if self.sent == population.requests_per_client:
            self.frontdoor._client_ended()
            return
        trace = population.trace
        base = trace[(self.index + self.sent * population.clients) % len(trace)]
        self.sent += 1
        self.frontdoor.launch(base, self.verdict)

    def verdict(self, _outcome: str) -> None:
        self.simulator.schedule_call(self.simulator.clock._now, self.wake)

    def wake(self, _, __) -> None:
        think_ns = self.population.think_ns
        if think_ns:
            think = round(self.rng.exponential(think_ns))
            self.simulator.schedule_call(self.simulator.clock._now + think, self.send)
        else:
            self.send()
