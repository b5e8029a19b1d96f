"""Open-arrival pacing: one generator, every front door.

Both the fleet's own arrival loop and the network layer's open-loop client
populations do the same thing: walk an arrival-ordered trace, sleep the kernel
until each request's arrival instant, and hand the request to a delivery
callback.  :func:`open_arrivals` is that loop, extracted once — the fleet
passes its dispatcher as the sink, a client population passes its transport.

The pacing discipline is digest-frozen: requests are re-stamped by the clock
offset at process start (zero on a fresh kernel, so first runs are
bit-identical to the historical loops), one re-used :class:`Timeout` carries
every sleep, and requests are released in front-door groups of ``batch`` at
the group's *last* member's arrival instant (``batch > 1`` is the
interrupt-coalescing behaviour the million-request scale runs rely on; the
default group of one delivers each request at its own arrival).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.sim.kernel import Timeout
from repro.workloads.multitenant import FleetRequest


def _restamp(request: FleetRequest, offset: int) -> FleetRequest:
    """Shift a request onto the current timeline (deadline included)."""
    if request.deadline_ns is not None:
        return replace(
            request,
            arrival_ns=request.arrival_ns + offset,
            deadline_ns=request.deadline_ns + offset,
        )
    return replace(request, arrival_ns=request.arrival_ns + offset)


def open_arrivals(
    trace: Iterable[FleetRequest],
    clock,
    deliver: Callable[[FleetRequest], None],
    batch: int = 1,
):
    """Kernel process: deliver each trace request at its arrival instant.

    The trace's ``arrival_ns`` are relative to the start of this process: on a
    reused kernel the clock has already advanced, so requests are re-stamped
    onto the current timeline (a plain offset keeps the first run, where the
    offset is zero, bit-identical).

    With ``batch > 1`` requests are admitted in groups of *batch*, each group
    released at its **last** member's arrival instant: every request keeps its
    own ``arrival_ns`` (waiting time is charged from true arrival), but
    delivery can lag arrival by up to the group's arrival span, trading
    bounded extra queueing delay for one kernel timer event per group.
    """
    offset = clock._now
    arrival_timeout = Timeout(0)
    # One loop for every group size: unbatched (``batch <= 1``) is a group
    # of one, delivered at its own arrival.
    pending = []
    append = pending.append
    for request in trace:
        if offset:
            request = _restamp(request, offset)
        append(request)
        if len(pending) < batch:
            continue
        delay = request.arrival_ns - clock._now
        if delay > 0:
            # Reused Timeout (consumed synchronously by the kernel).
            arrival_timeout.delay_ns = delay
            yield arrival_timeout
        for queued in pending:
            deliver(queued)
        pending.clear()
    if pending:
        delay = pending[-1].arrival_ns - clock._now
        if delay > 0:
            arrival_timeout.delay_ns = delay
            yield arrival_timeout
        for queued in pending:
            deliver(queued)
