"""One card of the fleet: a single-server FIFO queue around a host driver.

A :class:`FleetCard` is the server of the fleet's queueing network
(:mod:`repro.cluster.fleet`): ``queue`` holds what waits behind the item in
service, ``busy`` says whether one is, :meth:`FleetCard.serve` runs a request
on the card's private timeline and returns the service time the fleet then
spends on the kernel clock, and :meth:`FleetCard.spend` does the same for one
operation of a control-plane order.  The card schedules nothing itself —
``Fleet._put`` / ``_start`` / ``_finish`` move its items.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.cluster.fastpath import ServeMemo, drain_device_events
from repro.core.exceptions import CoprocessorError
from repro.core.host import HostDriver
from repro.sim.kernel import Timeout
from repro.workloads.multitenant import FleetRequest


class FleetCard:
    """One card in the fleet: a host driver plus its dispatch queue."""

    def __init__(self, index: int, driver: HostDriver, queue_depth: int) -> None:
        if queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        self.index = index
        self.name = f"card{index}"
        self.driver = driver
        #: Items waiting behind the one in service (requests, failed-over
        #: ``(request, tried)`` pairs, orders), first in first out.
        self.queue: Deque = deque()
        #: True from the ``put`` that found the card idle until the item
        #: that leaves the queue empty has finished.
        self.busy = False
        self.queue_depth = queue_depth
        #: The mini OS frame replacement table (created once per card and
        #: only ever mutated in place): the rebalancer reads its
        #: ``held_frames`` as the card's frames used.
        self.table = driver.card.coprocessor.mcu.minios.table
        # Dispatch-hot sideband query, bound through to the table's own
        # membership probe: saves the attribute hops and a delegation call
        # per residency probe on the affinity path.
        self._is_resident = self.table.__contains__
        # More per-request bindings for the fleet's serve path (both objects
        # are constructed once with the driver and never swapped out).
        self._card_clock = driver.clock
        self._device = driver.coprocessor.device
        #: Requests dispatched to this card and not yet completed
        #: (queued + the one in service).
        self.outstanding = 0
        self.served = 0
        self.busy_ns = 0
        #: Health state: "up", "degraded" (configuration port wedged — serves
        #: hits, cannot reconfigure) or "down" (invisible to dispatch).
        self.health = "up"
        self.down_since_ns: Optional[int] = None
        self.degraded_until_ns = 0
        #: Classes of the periodic orders queued or in service here — a
        #: periodic service keeps at most one order of its kind per card.
        self.pending: set = set()
        #: Record/replay cache of this card's resident-hit serves; it
        #: replays only while :meth:`ServeMemo._safe` holds.  Set to ``None``
        #: to run the full card model on every request (the differential
        #: tests' reference).
        self.memo: Optional[ServeMemo] = ServeMemo(self)
        #: The card's device :class:`~repro.sim.trace.TraceRecorder` when the
        #: fleet bridges device events into ``card.*`` sub-spans, else None.
        #: A bridged recorder is empty between serves: every serve and order
        #: drains it.
        self._obs_trace = None
        #: The last serve's device activity on a bridged card, as
        #: :meth:`Tracer.record_device <repro.obs.context.Tracer.
        #: record_device>` takes it: ``(events, count, ordinal)``.
        self.device_events: tuple = ((), 0, 0)

    # --------------------------------------------------------------- queries
    @property
    def has_room(self) -> bool:
        return self.health != "down" and self.outstanding < self.queue_depth

    def holds(self, function: str) -> bool:
        """Does this card's fabric currently hold *function*'s frames?"""
        return self.health != "down" and self._is_resident(function)

    @property
    def free_frames(self) -> int:
        """Unclaimed configuration frames on this card's fabric."""
        return self.driver.card.free_frames

    def resident_functions(self) -> List[str]:
        return self.driver.card.resident_functions()

    # --------------------------------------------------------------- service
    def serve(self, request: FleetRequest) -> tuple:
        """Run *request* synchronously on the card's private timeline.

        Returns ``(service_ns, hit)``: the card-local time the full
        PCI + reconfigure + execute path took, and whether the function was
        already resident.
        """
        memo = self.memo
        if memo is not None:
            service_ns = memo.replay(request.function, request.payload)
            if service_ns is not None:
                self.served += 1
                self.busy_ns += service_ns
                return service_ns, True
        clock = self.driver.clock
        before = clock.now
        try:
            if memo is not None and memo._safe(request.function):
                result = memo.record_call(request.function, request.payload)
            else:
                result = self.driver.call(request.function, request.payload)
        finally:
            if self._obs_trace is not None:
                self.device_events = drain_device_events(self._obs_trace, before)
        service_ns = clock.now - before
        hit = result.card_result.hit
        self.served += 1
        self.busy_ns += service_ns
        return service_ns, hit

    @property
    def hazard_detector(self):
        """The card's executor-path hazard detector (``None`` unprotected)."""
        return self.driver.coprocessor.device.hazard_detector

    @property
    def scrub_stats(self):
        """The card's scrubber counters (``None`` without fault protection)."""
        scrubber = self.driver.coprocessor.scrubber
        return scrubber.stats if scrubber is not None else None

    @property
    def defrag_stats(self):
        """The card's defragmenter counters (``None`` until defrag is enabled)."""
        defragmenter = self.driver.coprocessor.defragmenter
        return defragmenter.stats if defragmenter is not None else None

    def spend(self, operation, *args):
        """Run ``operation(*args)`` on the card's private clock and spend the
        time it took on the fleet timeline (a generator).

        The Δt is charged to ``busy_ns`` whether or not the operation raised
        :class:`CoprocessorError` — a refused command still moved its
        registers and data over the bus.  Returns ``(result, error)``.
        """
        clock = self._card_clock
        before = clock._now
        result = error = None
        try:
            result = operation(*args)
        except CoprocessorError as refused:
            error = refused
        elapsed = clock._now - before
        self.busy_ns += elapsed
        if elapsed > 0:
            yield Timeout(elapsed)
        return result, error
