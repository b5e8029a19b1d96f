"""The pre-PR-21 eager device bridge and the pre-PR-22 card worker process.

Kept as the independent reference for two replacements.  The lazy bridge
(``tests/test_obs_lazy_bridge.py``): :class:`repro.obs.context.DeviceSpans`
records one reference per traced serve and builds the ``card.*`` spans where
the log is read; this is the design it replaced, moved here unchanged.  The
card server (``tests/test_cluster_card_server.py``): ``Fleet._put`` /
``_start`` / ``_finish`` replaced one generator per card blocked on a kernel
``Store``; :func:`worker` is that generator, draining the test-side
``oracles.store.Store``.

* :class:`EagerServeMemo` — ``ServeMemo.replay`` as it was, appending one
  :class:`TraceEvent` per recorded device event to the card's recorder
  (``_replay_events``), ``capacity`` / ``dropped`` honoured call by call;
* :func:`serve` — ``FleetCard.serve`` as it was, leaving the recorder alone;
* :func:`worker` — the fleet's per-card worker process as it was before
  PR 21, slicing the serve's events off the recorder (``mark`` /
  ``bridged``) and recording one span per event through ``Tracer.record``,
  so ids, ``capacity``, ``dropped``, the tail sampler's bounds and the
  observer are all charged span by span.

:func:`install` swaps the three into a fleet before it first runs: every
card gets a store, ``fleet._put`` puts to it, and one spawned :func:`worker`
per card drains it — ``len(fleet.cards)`` kernel entries the server form
does not have, and no other difference in any run.
"""

from __future__ import annotations

import types
from typing import Optional

from repro.cluster.fastpath import ServeMemo
from oracles.store import Store
from repro.cluster.card import FleetCard
from repro.cluster.fleet import _NO_CARDS_TRIED
from repro.cluster.orders import Order
from repro.core.exceptions import CoprocessorError
from repro.obs import names as _obs_names
from repro.sim.kernel import Timeout
from repro.sim.trace import TraceEvent
from repro.workloads.multitenant import FleetRequest


def install(fleet) -> None:
    """Make *fleet* bridge device events eagerly (call before it runs)."""
    assert fleet.simulator.events_dispatched == 0, "install the oracle before the first run"
    stores = {card: Store(fleet.simulator) for card in fleet.cards}
    fleet._put = lambda card, item: stores[card].put(item)
    for card in fleet.cards:
        stores[card].spawn(worker(fleet, card, stores[card]))
        card.serve = types.MethodType(serve, card)
        if card.memo is not None:
            card.memo = EagerServeMemo(card)


class EagerServeMemo(ServeMemo):
    """``ServeMemo`` whose traced replay appends ``TraceEvent`` objects."""

    def replay(self, function: str, payload: bytes) -> Optional[int]:
        """Replay a recorded hit; returns the service time or ``None``.

        ``None`` means "no usable memo" — the caller must run the real path.
        """
        entry = self._entries.get((function, len(payload)))
        if entry is None or not self._safe(function):
            return None
        (
            duration_ns,
            touches,
            events,
            busy_ns,
            bus_transactions,
            bus_bytes,
        ) = entry

        clock = self.clock
        start = clock._now
        minios_touch = self._minios_touch
        for name, offset_ns in touches:
            minios_touch(name, start + offset_ns)
        clock._now = start + duration_ns
        if self._recorder.enabled:
            self._replay_events(events, start)

        bus = self.bus
        bus.busy_time_ns += busy_ns
        bus.transactions_completed += bus_transactions
        bus.bytes_transferred += bus_bytes
        self.mcu.requests_handled += 1

        self.minios.stats.hits += 1

        self.device.total_executions += 1
        loaded = self._loaded_get(function)
        if loaded is not None:
            loaded.executions += 1

        self.copro.stats.record_hit_replay(function)

        self.replays += 1
        return duration_ns

    def _replay_events(self, events, start: int) -> None:
        """Append what ``TraceRecorder.record`` would have, call by call."""
        recorder = self._recorder
        ordinal = self.mcu.requests_handled
        recorded = recorder.events
        capacity = recorder.capacity
        for component, action, start_offset, end_offset, attributes, label_prefix in events:
            if capacity is not None and len(recorded) >= capacity:
                recorder.dropped += 1
                continue
            attributes = dict(attributes)
            if label_prefix is not None:
                attributes["label"] = f"{label_prefix}{ordinal}"
            recorded.append(
                TraceEvent(component, action, start + start_offset, start + end_offset, attributes)
            )


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
    if memo is not None and memo._safe(request.function):
        result = memo.record_call(request.function, request.payload)
    else:
        result = self.driver.call(request.function, request.payload)
    service_ns = clock.now - before
    hit = result.card_result.hit
    self.served += 1
    self.busy_ns += service_ns
    return service_ns, hit


def worker(self, card: FleetCard, store: Store):
    """Drain one card's queue forever (idles when the queue is empty).

    Besides tenant requests the queue carries control-plane orders, so
    reliability work contends for the same card time as traffic.  A
    request popped on (or completed after) a dead card is failed over,
    never dropped.
    """
    # Steady-state allocation diet: one Timeout is re-stamped with each
    # service time (the kernel consumes it synchronously).  Everything
    # consulted once per request is pre-bound (none of these objects is
    # ever swapped out for the life of the fleet).
    service_timeout = Timeout(0)
    clock = self.clock
    card_name = card.name
    device = card._device
    card_clock = card._card_clock
    serve = card.serve
    record_completion = self.stats.record_completion
    tracer = self._tracer
    trace_ctx = self._trace_ctx
    card_trace = card._obs_trace
    while True:
        item = yield from store.get()
        if item.__class__ is FleetRequest:
            tried = _NO_CARDS_TRIED
            request = item
        elif isinstance(item, Order):
            yield from self._run_order(card, item)
            if card_trace is not None:
                # Orders' device events are not bridged; drop them so the
                # enabled recorder cannot grow without bound.
                del card_trace.events[:]
            continue
        elif item.__class__ is tuple:  # failed over: (request, cards tried)
            request, tried = item
        else:  # any other request (the front door's GatewayRequest)
            tried = _NO_CARDS_TRIED
            request = item
        if tracer is not None:
            ctx = trace_ctx.get(id(request))
            if ctx is not None:
                # Queue wait: last enqueue (dispatch or failover) to this
                # worker pop — re-stamped per hop, so each bounce gets
                # its own wait span.
                tracer.record(
                    _obs_names.SPAN_FLEET_QUEUE,
                    ctx.trace_id,
                    ctx.root_id,
                    ctx.enqueued_ns,
                    clock._now,
                    card=card_name,
                )
        else:
            ctx = None
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
        detector = device.hazard_detector
        hazards_before = detector.hazard_executions if detector is not None else 0
        card_clock_before = card_clock._now
        mark = len(card_trace.events) if card_trace is not None else 0
        try:
            service_ns, hit = serve(request)
        except CoprocessorError:
            # The card refused (its configuration transfer failed,
            # or capacity).  The refusal was not free: the input transfer
            # and register traffic already advanced the card's private
            # clock, so charge that time on the fleet timeline before
            # handing the request back to the dispatcher.
            failed_ns = card_clock._now - card_clock_before
            card.busy_ns += failed_ns
            if card_trace is not None:
                del card_trace.events[mark:]
            if failed_ns > 0:
                yield Timeout(failed_ns)
            card.outstanding -= 1
            self._failover(request, card, "serve-failed", tried)
            continue
        hazard = (
            detector is not None and detector.hazard_executions > hazards_before
        )
        if card_trace is not None:
            # Snapshot (and truncate) the device recorder now, while the
            # serve's events are the tail — the kernel yield below may
            # interleave other activity on this recorder.
            bridged = card_trace.events[mark:] if ctx is not None else ()
            del card_trace.events[mark:]
        else:
            bridged = ()
        service_timeout.delay_ns = service_ns
        yield service_timeout
        card.outstanding -= 1
        if ctx is not None:
            service_span = tracer.record(
                _obs_names.SPAN_CARD_SERVICE,
                ctx.trace_id,
                ctx.root_id,
                started_ns,
                clock._now,
                card=card_name,
                hit=hit,
            )
            # Bridge device events (card-clock deltas) onto kernel time.
            base = started_ns - card_clock_before
            for event in bridged:
                tracer.record(
                    _obs_names.device_span_name(event.component, event.action),
                    ctx.trace_id,
                    service_span,
                    event.start_ns + base,
                    event.end_ns + base,
                    **event.attributes,
                )
        if (
            card.health == "down"
            and card.down_since_ns is not None
            and card.down_since_ns < clock._now
        ):
            # The card died while this request was in flight: its result
            # never reached the host.  Retry elsewhere.
            self._failover(request, card, "died-in-service", tried)
            continue
        record_completion(
            request.tenant,
            request.function,
            card_name,
            hit,
            request.arrival_ns,
            started_ns,
            clock._now,
            hazard,
        )
        if ctx is not None:
            self._obs_end(request, "completed", clock._now)
        callback = self.on_request_outcome
        if callback is not None:
            callback(request, "completed", clock._now)
