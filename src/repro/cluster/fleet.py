"""Multi-card fleet simulation on one shared event kernel.

A :class:`Fleet` wires N independent co-processor cards — each with its own
PCI bus, host bridge and :class:`~repro.core.host.HostDriver` — behind a
dispatcher, and drives an open-arrival multi-tenant request stream
(:class:`~repro.workloads.multitenant.FleetTrace`) through them on one shared
:class:`~repro.sim.kernel.Simulator`.

Two-timescale design
--------------------
The per-card model is transaction-level and *synchronous*: a driver call
advances the card's own clock through every PCI burst, reconfiguration and
fabric cycle, and returns the precise service time.  The fleet layer treats
each card as a server in a queueing network: the shared kernel's clock is the
fleet timeline, arrivals are kernel timeouts, each card's bounded queue is a
``deque`` and a busy flag (:class:`~repro.cluster.card.FleetCard`), and a card
"being busy" for the service time the synchronous model measured is one
kernel entry — ``_put`` queues the start of service at the instant an item
reaches an idle card, ``_start`` serves it and queues ``_finish`` at
``now + service_ns``, and ``_finish`` settles the item and starts the next.
Card clocks therefore act as private service-time oracles (only their *deltas*
matter), while ordering, queueing and concurrency across cards live entirely
on the kernel clock — which is what keeps N-card schedules deterministic.
Both clocks count whole nanoseconds (:mod:`repro.sim.clock`), so a card-clock
delta is the same ``int`` wherever on either timeline it is measured.

A card serves a request one of two ways, chosen per request from the card's
observable regime (:meth:`~repro.cluster.fastpath.ServeMemo._safe`): a
resident function whose frames hold no suspect upset *replays* an earlier
hit of the same function and input length from its recorded duration and
offsets; anything else — a miss, an upset in the function's region, demand
scrubbing — runs the full card model.
The two are equal in schedule, counters, time totals and spans
(``tests/test_cluster_fastpath.py``).  Either way a traced serve's device
events reach the tracer as one ``card.device_events`` reference, built into
``card.*`` spans only where the span log is read.

Admission control is at the dispatcher: a card with ``queue_depth``
outstanding requests is inadmissible, and when every card is full the request
is rejected and counted, not queued forever (the fleet serves an open system;
unbounded queues would hide overload instead of surfacing it).

Card health and the control plane
---------------------------------
Cards carry a health state, ``up`` or ``down``.  A *down* card is invisible
to dispatch; its queued and in-flight requests are failed over —
re-dispatched through the policy to a surviving card, or rejected when the
fleet is full — never silently dropped.  A request a card refuses (its
configuration transfer failed) fails over the same way.

Everything else the fleet does to its cards — scrub windows, heal preloads,
defragmentation passes, the three phases of a migration — is an
:class:`~repro.cluster.orders.Order` on the same bounded card queues as the
requests, so reliability and rebalancing spend real card time (the trade-off
E10 and E11 sweep).  This module only moves orders: ``_start`` runs each
``_run_order`` generator's first step and ``Simulator.resume`` the rest, the
periodic services are ``_every(period, tick)`` with
``_order_once`` keeping one order of a kind per card, and what an order does
lives with its class in ``orders.py``.  ``docs/architecture.md`` ("Control
plane") draws an order's life and has the recipe for adding one.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.arrivals import open_arrivals
from repro.cluster.card import FleetCard
from repro.cluster.dispatch import DispatchPolicy, build_dispatch_policy
from repro.cluster.orders import DefragOrder, HealOrder, MigrateOrder, Order, ScrubOrder
from repro.cluster.stats import FleetStatistics
from repro.core.exceptions import CoprocessorError
from repro.core.host import HostDriver
from repro.obs import names as _obs_names
from repro.sim.clock import as_ns
from repro.sim.kernel import SimulationError, Simulator, Timeout
from repro.workloads.multitenant import FleetRequest, FleetTrace

#: Shared empty "cards already tried" set for fresh (non-failover) requests —
#: one allocation instead of one per served request.
_NO_CARDS_TRIED: frozenset = frozenset()

#: Items one ``Fleet._start`` call may take that cost no card time.  An item
#: that re-enqueues itself on its own card at no cost would otherwise spin
#: inside one kernel dispatch, invisible to ``Simulator.run(max_events=)``;
#: generous enough that no legitimate drain (bounded by what is queued plus
#: what downstream work puts back) ever reaches it.
ZERO_TIME_ITEM_LIMIT = 1_000_000

#: A dead card's hottest resident functions that healing re-homes.
HEAL_LIMIT = 4

#: Non-completion terminal outcome -> zero-duration marker span name.
_OUTCOME_MARKERS = {
    "rejected": _obs_names.SPAN_FLEET_REJECTED,
    "expired": _obs_names.SPAN_FLEET_EXPIRED,
}


class _ReqTrace:
    """Per-request trace context while the request is inside the fleet.

    Keyed by ``id(request)`` in ``Fleet._trace_ctx`` — request objects are
    referenced by card queues and kernel entries for their whole fleet
    lifetime and the entry is popped at the terminal outcome, so identity
    keys cannot go stale.  ``own_root`` marks traces born at the dispatcher (no front
    door): the fleet records their root span itself; net-admitted requests
    parent into the transport's ``client.request`` root instead.
    """

    __slots__ = ("trace_id", "root_id", "own_root", "arrival_ns", "enqueued_ns")

    def __init__(
        self, trace_id: int, root_id: int, own_root: bool, arrival_ns: int
    ) -> None:
        self.trace_id = trace_id
        self.root_id = root_id
        self.own_root = own_root
        self.arrival_ns = arrival_ns
        #: Re-stamped by every enqueue (fresh dispatch and failover alike),
        #: so each hop gets its own ``fleet.queue`` wait span.
        self.enqueued_ns = arrival_ns


class Fleet:
    """N co-processor cards behind a dispatcher on one simulation kernel."""

    def __init__(
        self,
        drivers: Sequence[HostDriver],
        policy: "DispatchPolicy | str" = "affinity",
        simulator: Optional[Simulator] = None,
        queue_depth: int = 8,
        stats_mode: str = "reservoir",
        card_indices: Optional[Sequence[int]] = None,
        admission_batch: int = 1,
        observability=None,
    ) -> None:
        if not drivers:
            raise ValueError("a fleet needs at least one card")
        if admission_batch < 1:
            raise ValueError("admission_batch must be at least 1")
        if card_indices is not None and len(card_indices) != len(drivers):
            raise ValueError("card_indices must name one global index per driver")
        self.simulator = simulator if simulator is not None else Simulator()
        self.clock = self.simulator.clock
        self.policy = (
            build_dispatch_policy(policy) if isinstance(policy, str) else policy
        )
        # Policies carry per-fleet mutable state (rotation pointers): sharing
        # one instance across fleets would merge that state and silently
        # break schedule determinism.
        if getattr(self.policy, "_fleet_bound", False):
            raise ValueError(
                "dispatch policy instances hold per-fleet state; "
                "build a fresh policy for each fleet"
            )
        #: Front-door admission group size.  1 (default) admits every request
        #: at its own arrival instant — the historical, digest-frozen
        #: behaviour.  Larger values model an interrupt-coalescing front door:
        #: requests are released to the dispatcher in groups when the group's
        #: last member arrives, trading bounded extra queueing delay for one
        #: kernel timer event per *group* instead of per request (the
        #: million-request scale configuration).
        self.admission_batch = admission_batch
        # ``card_indices`` lets a *shard* host a subset of a larger fleet's
        # cards under their global identities (card names, policy homes), so
        # its completion records merge byte-identically with other shards'.
        indices = list(card_indices) if card_indices is not None else range(len(drivers))
        self.cards = [
            FleetCard(index, driver, queue_depth)
            for index, driver in zip(indices, drivers)
        ]
        # Observability (PR 8; all off until an Observability object is
        # handed in).  With ``self._tracer is None`` — the default — every
        # instrumentation site below reduces to one identity check, so the
        # untraced schedule and its digests stay byte-identical.
        self.obs = observability
        self._tracer = observability.tracer if observability is not None else None
        #: id(request) -> _ReqTrace for requests currently inside the fleet.
        self._trace_ctx: Dict[int, _ReqTrace] = {}
        self.stats = FleetStatistics(
            mode=stats_mode,
            registry=observability.registry if observability is not None else None,
        )
        #: The incident flight recorder's fault-event feed (None without SLOs).
        #: It and the SLO engine only read what the stats already see, so
        #: neither can move a schedule digest.
        self._recorder = None
        if observability is not None:
            self.stats.slo_engine = observability.slo_engine
            self._recorder = observability.recorder
            self._register_fleet_gauges(observability.registry)
            for card in self.cards:
                recorder = card.driver.coprocessor.trace
                recorder.enabled = True
                card._obs_trace = recorder
        #: True while a run's arrivals generator has requests left to deliver.
        self._arrivals_running = False
        # Fault tolerance (all off until enable_fault_tolerance/install_faults).
        self.heal_on_failure = False
        # Rebalancing / defragmentation (PR 5; off until enabled).
        self.rebalancer = None
        #: Functions with a migration in flight (ordered, not yet released or
        #: failed) — the planner must not order the same function twice.
        self.migrating: set = set()
        #: Named kernel services (scrub timers, fault processes): factories
        #: producing fresh generators; re-spawned by run() when finished.
        self._services: List[Tuple[str, Callable]] = []
        #: Names of the services whose generator has not ended yet.
        self._services_running: set = set()
        # Network front door (PR 7; both None until a FrontDoor installs them).
        #: Called as ``callback(request, outcome, now_ns)`` with outcome one of
        #: ``"completed"`` / ``"rejected"`` / ``"expired"`` — how a gateway
        #: learns a dispatched request's terminal fate.
        self.on_request_outcome: Optional[Callable] = None
        #: Extra idleness veto: while it returns False the fleet is not idle
        #: even with empty queues (a front door still has traffic in flight,
        #: so periodic services must keep running between packets).
        self.idle_hook: Optional[Callable[[], bool]] = None
        # Bind last, so a failed construction does not poison the instance.
        self.policy._fleet_bound = True

    # ---------------------------------------------------------------- wiring
    # ---------------------------------------------------------- observability
    def _register_fleet_gauges(self, registry) -> None:
        """Expose live fleet state as callback gauges (read at snapshot)."""
        cards = self.cards
        stats = self.stats
        names = _obs_names
        registry.gauge(names.GAUGE_CARDS_DOWN, fn=self.cards_down)
        registry.gauge(
            names.GAUGE_QUEUE_OUTSTANDING,
            fn=lambda: sum(card.outstanding for card in cards),
        )
        for gauge, unit, field in (
            (names.GAUGE_SCRUB_PASSES, "scrub_stats", "passes"),
            (names.GAUGE_SCRUB_FRAMES_CHECKED, "scrub_stats", "frames_checked"),
            (names.GAUGE_SCRUB_DETECTED, "scrub_stats", "detected"),
            (names.GAUGE_SCRUB_CORRECTED, "scrub_stats", "corrected"),
            (names.GAUGE_SCRUB_UNCORRECTABLE, "scrub_stats", "uncorrectable"),
            (names.GAUGE_HAZARD_EXECUTIONS, "hazard_detector", "hazard_executions"),
            (names.GAUGE_DEFRAG_PASSES, "defrag_stats", "passes"),
            (names.GAUGE_DEFRAG_MOVES, "defrag_stats", "moves"),
        ):
            registry.gauge(gauge, fn=partial(self._total, unit, field))
        registry.gauge(
            names.GAUGE_SOJOURN_P50, fn=lambda: stats.latency_percentile(50)
        )
        registry.gauge(
            names.GAUGE_SOJOURN_P95, fn=lambda: stats.latency_percentile(95)
        )
        registry.gauge(
            names.GAUGE_SOJOURN_P99, fn=lambda: stats.latency_percentile(99)
        )

    def record_fault_event(self, kind: str, card_name: str, **attrs) -> None:
        """Feed one fault-domain event (kill/upset) to
        the incident flight recorder; no-op when none is installed."""
        recorder = self._recorder
        if recorder is not None:
            recorder.on_fault(kind, card_name, self.clock._now, **attrs)

    def _obs_register(self, request: FleetRequest, trace_id: int, parent_id: int) -> None:
        """Adopt a net-layer trace context for *request* (gateway admission).

        Called by the gateway just before :meth:`submit`, so the dispatcher
        parents its spans into the transport's ``client.request`` root
        instead of opening a fleet-local one.
        """
        self._trace_ctx[id(request)] = _ReqTrace(
            trace_id, parent_id, False, self.clock._now
        )

    def _obs_end(self, request: FleetRequest, outcome: str, now_ns: int) -> None:
        """Close *request*'s trace at a terminal outcome (tracer known set)."""
        ctx = self._trace_ctx.pop(id(request), None)
        if ctx is None:
            return
        tracer = self._tracer
        marker = _OUTCOME_MARKERS.get(outcome)
        if marker is not None:
            tracer.marker(
                marker,
                ctx.trace_id,
                ctx.root_id,
                now_ns,
                tenant=request.tenant,
                function=request.function,
            )
        if ctx.own_root:
            tracer.record(
                _obs_names.SPAN_FLEET_REQUEST,
                ctx.trace_id,
                None,
                ctx.arrival_ns,
                now_ns,
                span_id=ctx.root_id,
                tenant=request.tenant,
                function=request.function,
                outcome=outcome,
            )

    def _obs_order_begin(self):
        """Open a fresh control-plane order trace, or ``None`` untraced.

        Returns ``(trace_id, start_ns)`` — each order is its own trace in
        the negative-id namespace, the ROADMAP's order-level trace hook.
        """
        tracer = self._tracer
        if tracer is None:
            return None
        return tracer.new_trace_id(), self.clock._now

    # ------------------------------------------------------------ card server
    def _put(self, card: FleetCard, item) -> None:
        """Put *item* on *card* — the one way onto a card's queue.

        A busy card queues it.  An idle card turns busy and the start of
        service is **one** same-instant kernel entry: nothing is served
        inside the caller, so whoever routes the rest of a same-instant
        group reads the card's residency as it was before this item ran.
        """
        if card.busy:
            card.queue.append(item)
        else:
            card.busy = True
            simulator = self.simulator
            simulator._fifo.append(
                (self.clock._now, simulator._next_seq(), self._start, card, item)
            )

    def _start(self, card: FleetCard, item) -> None:
        """Serve *item* (``None``: the head of the queue), then whatever is
        queued behind it, until one takes card time; that one's end is
        **one** kernel entry.

        Besides tenant requests the queue carries control-plane orders, so
        reliability work contends for the same card time as traffic.  A
        request popped on a dead card is failed over, never dropped.
        """
        clock = self.clock
        for taken in range(ZERO_TIME_ITEM_LIMIT):
            if taken or item is None:
                # The item before is done (or took no card time): the next
                # starts at this instant, inside this dispatch.
                if not card.queue:
                    card.busy = False
                    return
                item = card.queue.popleft()
            request, tried = item, _NO_CARDS_TRIED
            if item.__class__ is not FleetRequest:  # a GatewayRequest, tuple or order
                if item.__class__ is tuple:  # failed over: (request, cards tried)
                    request, tried = item
                elif isinstance(item, Order):
                    # The order's first step runs here; the kernel steps the
                    # rest and serves the queue behind it when it ends.
                    running = self._run_order(card, item)
                    for timeout in running:
                        self.simulator.schedule_call(
                            clock._now + timeout.delay_ns,
                            self.simulator.resume,
                            running,
                            partial(self._start, card, None),
                        )
                        return
                    continue
            ctx = self._trace_ctx.get(id(request)) if self._tracer is not None else None
            if ctx is not None:
                # Queue wait: last enqueue (dispatch or failover) to this
                # start of service — re-stamped per hop, so each bounce gets
                # its own wait span.
                self._tracer.record(
                    _obs_names.SPAN_FLEET_QUEUE,
                    ctx.trace_id,
                    ctx.root_id,
                    ctx.enqueued_ns,
                    clock._now,
                    card=card.name,
                )
            deadline = request.deadline_ns
            if deadline is not None and clock._now > deadline:
                # Expired in queue: fail fast with its own counter — a late
                # result would be discarded by every real client anyway, so
                # serving it would only burn card time and hide the overload.
                card.outstanding -= 1
                self._terminate(request, "expired")
                continue
            if card.health == "down":
                card.outstanding -= 1
                self._failover(request, card, "dead-queue", tried)
                continue
            started_ns = clock._now
            detector = card._device.hazard_detector
            hazards_before = detector.hazard_executions if detector is not None else 0
            card_clock_before = card._card_clock._now
            try:
                service_ns, hit = card.serve(request)
            except CoprocessorError:
                # The card refused (its configuration transfer failed, or
                # capacity).  The refusal was not free: the input transfer
                # and register traffic already advanced the card's private
                # clock, so charge that time on the fleet timeline before
                # handing the request back to the dispatcher (``_finish``
                # with ``hit is None``).
                service_ns = card._card_clock._now - card_clock_before
                card.busy_ns += service_ns
                if service_ns == 0:
                    card.outstanding -= 1
                    self._failover(request, card, "serve-failed", tried)
                    continue
                hit = None
            hazard = detector is not None and detector.hazard_executions > hazards_before
            simulator = self.simulator
            entry = (
                started_ns + service_ns,
                simulator._next_seq(),
                self._finish,
                card,
                (request, tried, ctx, started_ns, hit, hazard),
            )
            if service_ns == 0:
                simulator._fifo.append(entry)
            else:
                heappush(simulator._heap, entry)
            return
        raise SimulationError(
            f"{card.name} took {ZERO_TIME_ITEM_LIMIT} items in a row that cost "
            f"no card time; possible self-feeding livelock"
        )

    def _finish(self, card: FleetCard, state: tuple) -> None:
        """The request in service is done: settle it, start the next item.

        A request completed after its card died is failed over, never
        dropped; ``hit is None`` is a refused serve whose card time is spent.
        """
        request, tried, ctx, started_ns, hit, hazard = state
        now = self.clock._now
        card.outstanding -= 1
        if hit is None:
            self._failover(request, card, "serve-failed", tried)
        else:
            if ctx is not None:
                tracer = self._tracer
                service_span = tracer.record(
                    _obs_names.SPAN_CARD_SERVICE,
                    ctx.trace_id,
                    ctx.root_id,
                    started_ns,
                    now,
                    card=card.name,
                    hit=hit,
                )
                if card._obs_trace is not None:
                    # Offsets from the serve's start, placed at its kernel
                    # instant; no span is built until the log is read.
                    tracer.record_device(
                        ctx.trace_id, service_span, started_ns, *card.device_events
                    )
            if (
                card.health == "down"
                and card.down_since_ns is not None
                and card.down_since_ns < now
            ):
                # The card died while this request was in flight: its result
                # never reached the host.  Retry elsewhere.
                self._failover(request, card, "died-in-service", tried)
            else:
                self.stats.record_completion(
                    request.tenant,
                    request.function,
                    card.name,
                    hit,
                    request.arrival_ns,
                    started_ns,
                    now,
                    hazard,
                )
                if ctx is not None:
                    self._obs_end(request, "completed", now)
                callback = self.on_request_outcome
                if callback is not None:
                    callback(request, "completed", now)
        if card.queue:
            self._start(card, card.queue.popleft())
        else:
            card.busy = False

    def _run_order(self, card: FleetCard, order: Order):
        """Run one control-plane order: work, slot release, span, settle."""
        obs = self._obs_order_begin()
        attributes = yield from order.work(self, card)
        card.outstanding -= 1
        if obs is not None:
            self._tracer.record(
                order.span,
                obs[0],
                None,
                obs[1],
                self.clock._now,
                card=card.name,
                **attributes,
            )
        order.settle(self, card)
        if card._obs_trace is not None:
            # Orders' device events are not bridged; drop them so the
            # enabled recorder cannot grow without bound.
            del card._obs_trace.events[:]

    def _enqueue(self, card: FleetCard, order: Order) -> None:
        """Put *order* on *card*'s queue; it holds a queue slot until it ran."""
        card.outstanding += 1
        self._put(card, order)

    def _order_once(self, card: FleetCard, order: Order) -> None:
        """Enqueue a periodic *order* unless the card is down or still has
        one of its kind queued or in service."""
        kind = order.__class__
        if card.health != "down" and kind not in card.pending:
            card.pending.add(kind)
            self._enqueue(card, order)

    def _every(self, period_ns: int, tick: Callable[[], None]):
        """Periodic service body: call *tick* once per period until idle."""
        while True:
            yield Timeout(period_ns)
            if self.is_idle:
                return
            tick()

    def _terminate(self, request: FleetRequest, outcome: str) -> None:
        """Count a request that will never complete (``"rejected"`` or
        ``"expired"``), close its trace and tell the front door."""
        now = self.clock.now
        stats = self.stats
        record = stats.record_expired if outcome == "expired" else stats.record_rejection
        record(request.tenant, request.function, now)
        if self._tracer is not None:
            self._obs_end(request, outcome, now)
        callback = self.on_request_outcome
        if callback is not None:
            callback(request, outcome, now)

    def _route(
        self,
        request: FleetRequest,
        candidates: Sequence[FleetCard],
        tried: frozenset = frozenset(),
    ) -> None:
        """Choose among *candidates* and enqueue, or reject.  The single
        admission/enqueue path shared by fresh dispatch and failover."""
        card = self.policy.choose(request, candidates)
        stats = self.stats
        if card is None:
            self._terminate(request, "rejected")
            return
        card.outstanding += 1
        # Count the admission: fleet-wide, per tenant and per card.
        stats.dispatched += 1
        stats.per_tenant_dispatched[request.tenant] += 1
        stats.per_card_dispatched[card.name] += 1
        if self._tracer is not None:
            ctx = self._trace_ctx.get(id(request))
            if ctx is not None:
                ctx.enqueued_ns = self.clock._now
        self._put(card, request if not tried else (request, tried))

    def submit(self, request: FleetRequest) -> None:
        """Admit one request at the current instant: count it, fail it fast
        if its deadline has passed, else route it to a card.

        The arrivals process delivers a run's trace here, and a network
        front door's gateways deliver requests one at a time as their
        packets arrive; periodic services are then the front door's
        responsibility (its ``run`` spawns them before its client
        populations).
        """
        # Count the arrival, fleet-wide and per tenant; the first one opens
        # the availability window.
        stats = self.stats
        stats.arrivals += 1
        stats.per_tenant_arrivals[request.tenant] += 1
        if stats.first_arrival_ns is None:
            stats.first_arrival_ns = request.arrival_ns
        tracer = self._tracer
        if (
            tracer is not None
            and id(request) not in self._trace_ctx
            and getattr(request, "request_id", -1) < 0
        ):
            # A trace born at the dispatcher: the fleet owns the root span,
            # in the negative-id namespace.  Requests stamped with a
            # transport request_id came through a gateway, whose transport
            # owns their root.
            self._trace_ctx[id(request)] = _ReqTrace(
                tracer.new_trace_id(), tracer.next_span_id(), True, self.clock._now
            )
        deadline = request.deadline_ns
        if deadline is not None and self.clock._now > deadline:
            # Dead on arrival (e.g. delivered late by a congested front-door
            # link): never admitted, so no card time is spent on it.
            self._terminate(request, "expired")
            return
        self._route(request, self.cards)

    def _failover(
        self, request: FleetRequest, failed: FleetCard, reason: str, tried: frozenset
    ) -> None:
        """Re-dispatch a request its card could not finish (or reject it).

        Every previously-tried card is excluded from the retry, so each card
        is offered a request at most once (no healthy card is starved of its
        turn by the retry rotation) and the bounce chain always terminates:
        queue hand-offs happen at a single kernel instant, so an uncapped
        retry between two cards that both refuse it would spin the event loop
        forever without simulated time ever advancing.
        """
        self.stats.record_failover(
            request.tenant, request.function, failed.name, reason, self.clock.now
        )
        if self._tracer is not None:
            ctx = self._trace_ctx.get(id(request))
            if ctx is not None:
                self._tracer.marker(
                    _obs_names.SPAN_FLEET_FAILOVER,
                    ctx.trace_id,
                    ctx.root_id,
                    self.clock._now,
                    card=failed.name,
                    reason=reason,
                )
        tried = tried | {failed.index}
        candidates = [card for card in self.cards if card.index not in tried]
        if not candidates:
            self._terminate(request, "rejected")
            return
        self._route(request, candidates, tried)

    def _arrivals(self, trace: FleetTrace):
        """Trace delivery, shared with the network layer's client
        populations: :func:`repro.cluster.arrivals.open_arrivals` paces the
        trace (re-stamped onto the current timeline on a reused kernel) and
        ``admission_batch`` selects front-door group admission, where each
        group is released at its **last** member's arrival instant — the
        interrupt-coalescing discipline the million-request scale benchmark
        uses to amortise per-request kernel timer events."""
        return open_arrivals(
            trace, self.clock, self.submit, batch=self.admission_batch
        )

    def _arrivals_ended(self) -> None:
        self._arrivals_running = False

    # ------------------------------------------------------- fault tolerance
    @property
    def is_idle(self) -> bool:
        """No undelivered arrivals and no outstanding work on any card.

        The stop condition every periodic service (scrub timers, fault
        processes) checks so the kernel's event queue can drain once the
        trace is served.
        """
        if self._arrivals_running:
            return False
        if self.idle_hook is not None and not self.idle_hook():
            return False
        return all(card.outstanding == 0 for card in self.cards)

    def add_service(self, name: str, factory: Callable) -> None:
        """Register a named kernel service; run() (re)spawns finished ones."""
        self._services.append((name, factory))

    def _add_order_service(self, name: str, period_ns: int, kind, budget) -> None:
        """One periodic service per card: each period, one ``kind(budget)``
        order on the card's queue unless the last one has not run yet."""
        for card in self.cards:
            tick = partial(self._order_once, card, kind(budget))
            self.add_service(f"{card.name}-{name}", partial(self._every, period_ns, tick))

    def _spawn_services(self) -> None:
        running = self._services_running
        for name, factory in self._services:
            if name not in running:
                running.add(name)
                self.simulator.spawn(factory(), then=partial(running.discard, name))

    def enable_fault_tolerance(
        self,
        scrub_period_ns: Optional[int] = None,
        scrub_frames_per_order: int = 8,
        heal_on_failure: bool = True,
    ) -> None:
        """Install fault protection on every card and the fleet's services.

        ``scrub_period_ns`` starts a per-card readback-scrub service checking
        ``scrub_frames_per_order`` frames per period (``None`` disables
        periodic scrubbing but still installs detection, golden images and
        the healing policy).  ``scrub_period_ns=0`` selects *demand*
        scrubbing instead: every execution first scrubs its function's
        region, which closes the hazard window completely at a per-request
        cost.
        """
        if scrub_frames_per_order <= 0:
            raise ValueError("a scrub order must cover at least one frame")
        for card in self.cards:
            card.driver.coprocessor.enable_fault_protection()
        self.heal_on_failure = heal_on_failure
        if scrub_period_ns is not None:
            if scrub_period_ns < 0:
                raise ValueError("the scrub period cannot be negative")
            if scrub_period_ns == 0:
                for card in self.cards:
                    card.driver.coprocessor.mcu.scrub_on_execute = True
            else:
                self._add_order_service(
                    "scrub", scrub_period_ns, ScrubOrder, scrub_frames_per_order
                )

    # ---------------------------------------------------------- rebalancing
    def enable_rebalancing(
        self, period_ns: int, min_queue_skew: int = 4, min_frame_skew: int = 4
    ):
        """Start the fleet's migration-planning service.

        Every *period_ns* the :class:`~repro.cluster.rebalance.Rebalancer`
        inspects queue depths and configuration residency and, when the fleet
        is skewed, orders MIGRATE work (capture → transfer → restore →
        release) through the card queues.  Its cooldown is ten periods, so
        one function migrates at most once per ten cycles.  Returns the
        rebalancer.
        """
        if period_ns <= 0:
            raise ValueError("the rebalance period must be positive")
        from repro.cluster.rebalance import Rebalancer

        self.rebalancer = Rebalancer(min_queue_skew, min_frame_skew, as_ns(10 * period_ns))
        self.add_service(
            "fleet-rebalance", partial(self._every, period_ns, self._rebalance)
        )
        return self.rebalancer

    def _rebalance(self) -> None:
        """One planning cycle: order the rebalancer's migrations."""
        for plan in self.rebalancer.plan(self):
            if self.cards[plan.source_index].holds(plan.function):
                self.order_migration(plan.function, plan.source_index, plan.dest_index)

    def order_migration(self, function: str, source_index: int, dest_index: int) -> None:
        """Order *function* moved between two cards (capture → restore →
        release, each phase queued behind the card's traffic)."""
        source = self.cards[source_index]
        now = self.clock.now
        self.migrating.add(function)
        self.stats.record_migration_order(
            function, source.name, self.cards[dest_index].name, now
        )
        self._enqueue(source, MigrateOrder(function, dest_index, now))

    def enable_defrag(
        self,
        period_ns: Optional[int] = None,
        moves_per_order: Optional[int] = 1,
    ) -> None:
        """Install the defragmenter on every card (optionally as a service).

        With *period_ns* set, each card gets a periodic kernel service that
        enqueues one bounded :class:`DefragOrder` per period — compaction
        steals card time through the same bounded queue as traffic, exactly
        like scrubbing.  Without it, defragmentation only runs when the host
        issues DEFRAG explicitly.
        """
        if moves_per_order is not None and moves_per_order <= 0:
            raise ValueError("a defrag order must allow at least one move")
        for card in self.cards:
            card.driver.coprocessor.enable_defrag()
        if period_ns is not None:
            if period_ns <= 0:
                raise ValueError("the defrag period must be positive")
            self._add_order_service("defrag", period_ns, DefragOrder, moves_per_order)

    def rebalance_summary(self) -> dict:
        """Aggregate migration/defrag picture across the whole fleet."""
        stats = self.stats
        return {
            "migration_orders": stats.migration_orders,
            "migrations_completed": stats.migrations_completed,
            "migrations_failed": stats.migrations_failed,
            "migrated_frames": stats.migrated_frames,
            "migrated_bytes": stats.migrated_bytes,
            "migration_byte_diffs": stats.migration_byte_diffs,
            "mean_migration_latency_ns": stats.mean_migration_latency_ns,
            "defrag_passes": self._total("defrag_stats", "passes"),
            "defrag_moves": self._total("defrag_stats", "moves"),
            "defrag_frames_moved": self._total("defrag_stats", "frames_moved"),
        }

    def install_faults(self, injector) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector`'s processes."""
        for name, factory in injector.processes(self):
            self.add_service(name, factory)

    def kill_card(self, index: int) -> bool:
        """Whole-card failure: mark *index* down and trigger recovery.

        The card's affinity state is invalidated (``holds`` answers False, so
        dispatch stops routing to it), queued and in-flight requests fail
        over, and — when healing is enabled — its hottest resident functions
        are re-resident-ized on surviving cards.  Returns False when the card
        was already down.
        """
        card = self.cards[index]
        if card.health == "down":
            return False
        now = self.clock.now
        card.health = "down"
        card.down_since_ns = now
        self.stats.record_card_failure(card.name, now)
        self.record_fault_event("kill", card.name)
        if self.heal_on_failure:
            self._schedule_heals(card, now)
        return True

    def _schedule_heals(self, dead: FleetCard, killed_at_ns: int) -> None:
        """Re-resident-ize the dead card's hottest functions on survivors."""
        resident = dead.driver.card.resident_functions()
        per_function = dead.driver.coprocessor.stats.per_function_requests
        hot = sorted(resident, key=lambda fn: (-per_function.get(fn, 0), fn))
        for function in hot[:HEAL_LIMIT]:
            if any(card.holds(function) for card in self.cards):
                continue  # already covered elsewhere
            candidates = [
                card
                for card in self.cards
                if card.health == "up" and card.outstanding < card.queue_depth
            ]
            if not candidates:
                self.stats.heals_skipped += 1
                continue
            target = min(
                candidates,
                key=lambda card: (-card.free_frames, card.outstanding, card.index),
            )
            self.stats.record_heal_order(function, target.name, killed_at_ns)
            self._enqueue(target, HealOrder(function, killed_at_ns))

    def availability(self) -> float:
        """Capacity availability: 1 − card-downtime share of the service window.

        The window runs from the first arrival to the later of the last
        completion and the current kernel time, so a fleet that completed
        nothing (every card dead, every arrival rejected) reports the
        downtime it actually suffered instead of a vacuous 1.0, and downtime
        after the final completion still counts.
        """
        start = self.stats.first_arrival_ns
        if start is None:
            return 1.0
        end = max(self.clock.now, self.stats.last_completion_ns)
        span = end - start
        if span <= 0:
            return 1.0
        down = 0
        for card in self.cards:
            if card.down_since_ns is not None:
                down += max(0, end - max(card.down_since_ns, start))
        return 1.0 - down / (len(self.cards) * span)

    # ------------------------------------------------------------------- run
    def run(self, trace: FleetTrace, until_ns: Optional[int] = None) -> FleetStatistics:
        """Serve *trace* to completion (or *until_ns*); returns the statistics.

        Can be called repeatedly — statistics and residency accumulate, which
        lets experiments warm a fleet before a measured phase.  Each call
        plays the trace's arrival timeline starting from the current kernel
        time.  A run truncated by *until_ns* must be drained first — call
        ``fleet.simulator.run()`` to play the rest of the pending trace —
        before a new trace is offered; interleaving a half-delivered trace
        with a freshly re-stamped one would tangle the two timelines.
        """
        if self._arrivals_running:
            raise RuntimeError(
                "the previous trace still has undelivered arrivals "
                "(truncated by until_ns); drain it before offering a new trace"
            )
        self._spawn_services()
        self._arrivals_running = True
        self.simulator.spawn(self._arrivals(trace), then=self._arrivals_ended)
        self.simulator.run(until_ns=until_ns)
        # End-of-run observability settlement: flush the tail sampler's
        # rootless traces and close open incidents — but only at quiescence.
        # An ``until_ns``-truncated run still has traces in flight; flushing
        # them now would finalize half-trees the drain will complete.
        if self.obs is not None and self.is_idle:
            self.obs.finish(self.clock.now)
        return self.stats

    # --------------------------------------------------------------- queries
    def fingerprint(self) -> tuple:
        """A compact determinism probe for the whole fleet run.

        Identical across processes for the same fleet + trace: kernel event
        count, final kernel time, completion counters and the completion-stream
        digest.
        """
        return (
            self.simulator.events_dispatched,
            self.clock.now,
            self.stats.completed,
            self.stats.rejected,
            self.stats.schedule_digest(),
        )

    def cards_down(self) -> int:
        """How many cards are currently down."""
        return sum(1 for card in self.cards if card.health == "down")

    def _total(self, unit: str, field: str) -> int:
        """Fleet-wide sum of one per-card counter: *field* of each card's
        *unit* (``scrub_stats`` / ``defrag_stats`` / ``hazard_detector``),
        skipping cards that do not have the unit installed."""
        units = (getattr(card, unit) for card in self.cards)
        return sum(getattr(found, field) for found in units if found is not None)

    def card_summaries(self) -> List[dict]:
        """Per-card utilisation/residency snapshot (for reports)."""
        span = self.stats.makespan_ns
        rows = []
        for card in self.cards:
            copro_stats = card.driver.coprocessor.stats
            rows.append(
                {
                    "card": card.name,
                    "served": card.served,
                    "hit_rate": copro_stats.hit_rate,
                    "utilisation": (card.busy_ns / span) if span > 0 else 0.0,
                    "resident": ",".join(card.resident_functions()),
                    "health": card.health,
                }
            )
        return rows

    def fault_summary(self) -> dict:
        """Aggregate reliability picture across the whole fleet.

        Counter values come back through :meth:`MetricsRegistry.snapshot`
        (the counters *are* registry instruments, so the numbers are
        identical) — drill reports and the registry cannot drift apart.  The
        per-card scrub/hazard sums are the same :meth:`_total` an observed
        fleet's callback gauges read.
        """
        stats = self.stats
        snap = stats.registry.snapshot()
        return {
            "availability": self.availability(),
            "service_availability": stats.service_availability,
            "cards_down": self.cards_down(),
            "card_failures": snap[_obs_names.METRIC_CARD_FAILURES],
            "failovers": snap[_obs_names.METRIC_FAILOVERS],
            "heal_orders": snap[_obs_names.METRIC_HEAL_ORDERS],
            "heals_completed": snap[_obs_names.METRIC_HEALS_COMPLETED],
            "mttr_ns": stats.mttr_ns,
            "scrub_passes": self._total("scrub_stats", "passes"),
            "scrub_frames_checked": self._total("scrub_stats", "frames_checked"),
            "scrub_detected": self._total("scrub_stats", "detected"),
            "scrub_corrected": self._total("scrub_stats", "corrected"),
            "scrub_uncorrectable": self._total("scrub_stats", "uncorrectable"),
            "hazard_executions": self._total("hazard_detector", "hazard_executions"),
            "hazard_completions": snap[_obs_names.METRIC_HAZARD_COMPLETIONS],
            "silent_corruption_rate": stats.silent_corruption_rate,
        }
