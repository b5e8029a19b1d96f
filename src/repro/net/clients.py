"""The seeded client population that generates the front door's traffic.

:class:`OpenLoopPopulation` is trace-paced (Poisson, whatever the workload
generator produced): requests launch at their trace arrival instants whether
or not earlier ones finished.  Open loops are what overload a system —
demand does not slow down when the fleet does — so this is the population
the E12 overload sweep uses.  Pacing reuses the fleet's own
:func:`repro.cluster.arrivals.open_arrivals` generator.

It draws its requests from a :class:`~repro.workloads.multitenant.
FleetTrace` (the deterministic tenant-mix machinery) and hands each to
:meth:`~repro.net.frontdoor.FrontDoor.launch`, which stamps it into a
:class:`~repro.net.transport.GatewayRequest` (the front door owns the
request-id counter, priority map and deadline budget) and submits it.
``start`` queues the population on the kernel and returns how many clients
it started; each calls ``frontdoor._client_ended`` once it has nothing left
to send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.arrivals import open_arrivals

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
