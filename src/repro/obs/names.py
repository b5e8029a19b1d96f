"""Canonical span and metric names — the single source of truth.

Every instrument registered on a :class:`~repro.obs.registry.MetricsRegistry`
and every span recorded on a :class:`~repro.obs.context.Tracer` takes its
name from this module, so the naming convention cannot silently fork: the
lint test asserts that every constant here matches ``NAME_PATTERN``, that no
two constants collide, and that a fully-instrumented fleet + front door only
ever registers/records names derived from this module.

Convention: lower-case dotted paths, ``[a-z0-9_.]`` only, most-significant
subsystem first (``fleet.``, ``net.``, ``card.``, ``order.``, ``obs.``).
Device-level sub-spans bridged from the per-card
:class:`~repro.sim.trace.TraceRecorder` are dynamic —
``card.<component>.<action>`` via :func:`device_span_name`, which sanitises
component names like ``config-module`` into ``config_module``.
"""

from __future__ import annotations

import re
from functools import lru_cache

#: Every span/metric name must match this (the lint the registry enforces).
NAME_PATTERN = r"^[a-z0-9_.]+$"
NAME_RE = re.compile(NAME_PATTERN)

# --------------------------------------------------------------------- spans
#: Root span of one logical client request (network path): first transport
#: send to terminal verdict delivery.
SPAN_CLIENT_REQUEST = "client.request"
#: Root span of one request submitted directly to the fleet (no front door):
#: dispatcher arrival to terminal outcome.
SPAN_FLEET_REQUEST = "fleet.request"
#: One packet's life on a link: send() to far-end delivery.
SPAN_LINK_TRANSIT = "net.link.transit"
#: One transport attempt: uplink send to the verdict/timeout that ended it.
SPAN_NET_ATTEMPT = "net.attempt"
#: One retry backoff sleep.
SPAN_NET_BACKOFF = "net.backoff"
#: Gateway admission verdict (zero-duration; ``verdict`` attribute).
SPAN_GW_ADMISSION = "gw.admission"
#: Dispatcher enqueue to worker pop — the queue-wait the E12 story hinges on.
SPAN_FLEET_QUEUE = "fleet.queue"
#: Card service: worker starts serving to service-time elapsed.
SPAN_CARD_SERVICE = "card.service"
#: Zero-duration markers for non-completion terminal events and bounces.
SPAN_FLEET_FAILOVER = "fleet.failover"
SPAN_FLEET_REJECTED = "fleet.rejected"
SPAN_FLEET_EXPIRED = "fleet.expired"
#: Control-plane order spans (each order is its own trace) — the ROADMAP's
#: order-level trace hook.
SPAN_ORDER_SCRUB = "order.scrub"
SPAN_ORDER_HEAL = "order.heal"
SPAN_ORDER_DEFRAG = "order.defrag"
SPAN_ORDER_MIGRATE_CAPTURE = "order.migrate.capture"
SPAN_ORDER_MIGRATE_RESTORE = "order.migrate.restore"
SPAN_ORDER_MIGRATE_RELEASE = "order.migrate.release"
#: Gateway health-probe tick (zero-duration; ``cards_up`` attribute).
SPAN_ORDER_PROBE = "order.probe"

#: The static span vocabulary (dynamic ``card.*`` bridge names excluded).
SPAN_NAMES = (
    SPAN_CLIENT_REQUEST,
    SPAN_FLEET_REQUEST,
    SPAN_LINK_TRANSIT,
    SPAN_NET_ATTEMPT,
    SPAN_NET_BACKOFF,
    SPAN_GW_ADMISSION,
    SPAN_FLEET_QUEUE,
    SPAN_CARD_SERVICE,
    SPAN_FLEET_FAILOVER,
    SPAN_FLEET_REJECTED,
    SPAN_FLEET_EXPIRED,
    SPAN_ORDER_SCRUB,
    SPAN_ORDER_HEAL,
    SPAN_ORDER_DEFRAG,
    SPAN_ORDER_MIGRATE_CAPTURE,
    SPAN_ORDER_MIGRATE_RESTORE,
    SPAN_ORDER_MIGRATE_RELEASE,
    SPAN_ORDER_PROBE,
)

#: Prefix of the dynamic device-bridge span namespace.
DEVICE_SPAN_PREFIX = "card."

_SANITISE_RE = re.compile(r"[^a-z0-9_.]")


@lru_cache(maxsize=None)
def device_span_name(component: str, action: str) -> str:
    """Bridge a per-card trace event identity into the span namespace.

    ``("config-module", "reconfigure")`` → ``card.config_module.reconfigure``.
    Memoised: the bridge asks once per device event, and the vocabulary is
    the record sites in the card model (about fifteen pairs).
    """
    key = f"{component}.{action}".lower().replace("-", "_")
    return DEVICE_SPAN_PREFIX + _SANITISE_RE.sub("_", key)


# ------------------------------------------------------------------- metrics
# Fleet reliability / control plane.
METRIC_CARD_FAILURES = "fleet.cards.failures"
METRIC_FAILOVERS = "fleet.failovers"
METRIC_FAILOVERS_BY_REASON = "fleet.failovers.by_reason"
METRIC_FAILOVERS_BY_TENANT = "fleet.failovers.by_tenant"
METRIC_HEAL_ORDERS = "fleet.heal.orders"
METRIC_HEALS_COMPLETED = "fleet.heal.completed"
METRIC_HEALS_SKIPPED = "fleet.heal.skipped"
METRIC_HAZARD_COMPLETIONS = "fleet.hazard.completions"
# Migration / defragmentation.
METRIC_MIGRATION_ORDERS = "fleet.migration.orders"
METRIC_MIGRATIONS_COMPLETED = "fleet.migration.completed"
METRIC_MIGRATIONS_FAILED = "fleet.migration.failed"
METRIC_MIGRATION_FAILURES_BY_REASON = "fleet.migration.failures.by_reason"
METRIC_MIGRATED_FRAMES = "fleet.migration.frames"
METRIC_MIGRATED_BYTES = "fleet.migration.bytes"
METRIC_MIGRATION_BYTE_DIFFS = "fleet.migration.byte_diffs"
# Deadlines + network front door.
#: Deadline-expiry counters ("expirations", not "expired": the terminal
#: outcome *marker span* already owns ``fleet.expired``, and the lint keeps
#: the two vocabularies collision-free — same pattern as ``fleet.failover``
#: the event vs ``fleet.failovers`` the counter).
METRIC_EXPIRED = "fleet.expirations"
METRIC_EXPIRED_BY_TENANT = "fleet.expirations.by_tenant"
METRIC_NET_REQUESTS = "net.requests"
METRIC_NET_REQUESTS_BY_PRIORITY = "net.requests.by_priority"
METRIC_NET_ATTEMPTS = "net.attempts"
METRIC_NET_RETRIES = "net.retries"
METRIC_NET_TIMEOUTS = "net.timeouts"
METRIC_NET_COMPLETED = "net.completed"
METRIC_NET_COMPLETED_BY_PRIORITY = "net.completed.by_priority"
METRIC_NET_FAILED = "net.failed"
METRIC_NET_FAILURES_BY_REASON = "net.failures.by_reason"
METRIC_NET_SHED = "net.shed"
METRIC_NET_SHED_BY_PRIORITY = "net.shed.by_priority"
METRIC_BREAKER_OPENS = "net.breaker.opens"
METRIC_BREAKER_FAST_FAILS = "net.breaker.fast_fails"
METRIC_DUPLICATES_SUPPRESSED = "net.gateway.duplicates_suppressed"
METRIC_DUPLICATES_SERVED = "net.gateway.duplicates_served"
# Callback gauges registered by an observed Fleet.
GAUGE_CARDS_DOWN = "fleet.cards.down"
GAUGE_QUEUE_OUTSTANDING = "fleet.queue.outstanding"
GAUGE_SCRUB_PASSES = "fleet.scrub.passes"
GAUGE_SCRUB_FRAMES_CHECKED = "fleet.scrub.frames_checked"
GAUGE_SCRUB_DETECTED = "fleet.scrub.detected"
GAUGE_SCRUB_CORRECTED = "fleet.scrub.corrected"
GAUGE_SCRUB_UNCORRECTABLE = "fleet.scrub.uncorrectable"
GAUGE_HAZARD_EXECUTIONS = "fleet.hazard.executions"
GAUGE_DEFRAG_PASSES = "fleet.defrag.passes"
GAUGE_DEFRAG_MOVES = "fleet.defrag.moves"
GAUGE_SOJOURN_P50 = "fleet.sojourn.p50_ns"
GAUGE_SOJOURN_P95 = "fleet.sojourn.p95_ns"
GAUGE_SOJOURN_P99 = "fleet.sojourn.p99_ns"
# Callback gauges registered by an observed FrontDoor.
GAUGE_LINK_OFFERED = "net.link.offered"
GAUGE_LINK_DELIVERED = "net.link.delivered"
GAUGE_LINK_LOST = "net.link.lost"
GAUGE_LINK_DROPPED = "net.link.dropped"
GAUGE_GATEWAY_ADMITTED = "net.gateway.admitted"
GAUGE_BREAKERS_OPEN = "net.breaker.open_now"
# The observability layer's own accounting.
GAUGE_SPANS_RECORDED = "obs.spans.recorded"
GAUGE_SPANS_DROPPED = "obs.spans.dropped"
# SLO engine / multi-window burn-rate alerting (PR 9).  ``slo.*`` is metric
# vocabulary only — alerts are records, not spans — and the lint asserts it
# stays disjoint from the span namespace.
METRIC_SLO_ALERTS = "slo.alerts"
METRIC_SLO_ALERTS_BY_SLO = "slo.alerts.by_slo"
METRIC_SLO_ALERTS_RESOLVED = "slo.alerts.resolved"
GAUGE_SLO_WORST_BURN = "slo.burn.worst"
# Incident flight recorder.
METRIC_INCIDENTS_OPENED = "incident.opened"
METRIC_INCIDENTS_OVERFLOWED = "incident.overflowed"
GAUGE_INCIDENTS_OPEN = "incident.open_now"
# Tail-based trace sampling accounting.
GAUGE_TAIL_RETAINED = "obs.tail.retained_traces"
GAUGE_TAIL_DISCARDED = "obs.tail.discarded_traces"
GAUGE_TAIL_BUDGET_DROPPED = "obs.tail.budget_dropped_traces"

#: The static metric vocabulary (every name a fleet/front door registers).
METRIC_NAMES = tuple(
    value
    for key, value in sorted(globals().items())
    if key.startswith(("METRIC_", "GAUGE_"))
)
