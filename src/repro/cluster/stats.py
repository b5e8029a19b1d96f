"""Fleet-level statistics: what the whole cluster delivered.

Per-request sojourn times (arrival at the dispatcher to completion on a card,
queueing included) are kept per tenant in seeded reservoir samples, so
p50/p95/p99 remain meaningful and byte-reproducible on arbitrarily long
traces.  A running SHA-256 over the completion stream doubles as a *schedule
fingerprint*: two runs of the same fleet on the same trace must produce the
same digest, which is what the multi-card determinism tests assert.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, List, Optional

from repro.analysis.sketch import StreamingQuantileSketch
from repro.core.stats import ReservoirSampler, percentile_of
from repro.obs import names as _names
from repro.obs.registry import MetricsRegistry
from repro.sim.rand import SeededRandom


class _CounterAttr:
    """Expose a registry :class:`~repro.obs.registry.Counter` as a plain
    integer attribute, so every historical call site (``stats.failovers``,
    ``stats.heals_skipped += 1``) keeps working unchanged while the value
    lives on the metrics registry."""

    __slots__ = ("key",)

    def __init__(self, attr: str) -> None:
        self.key = "_c_" + attr

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.__dict__[self.key].value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.key].value = value


#: FleetStatistics attribute -> canonical instrument name for every scalar
#: counter migrated onto the registry (reliability, migration, net).  The
#: dispatch-path counters (arrivals/dispatched/completed/hits/...) stay
#: plain ints: they are the admission fast path, and their home has always
#: been the statistics object itself.
_MIGRATED_COUNTERS = (
    ("card_failures", _names.METRIC_CARD_FAILURES),
    ("failovers", _names.METRIC_FAILOVERS),
    ("heal_orders", _names.METRIC_HEAL_ORDERS),
    ("heals_completed", _names.METRIC_HEALS_COMPLETED),
    ("heals_skipped", _names.METRIC_HEALS_SKIPPED),
    ("hazard_completions", _names.METRIC_HAZARD_COMPLETIONS),
    ("migration_orders", _names.METRIC_MIGRATION_ORDERS),
    ("migrations_completed", _names.METRIC_MIGRATIONS_COMPLETED),
    ("migrations_failed", _names.METRIC_MIGRATIONS_FAILED),
    ("migrated_frames", _names.METRIC_MIGRATED_FRAMES),
    ("migrated_bytes", _names.METRIC_MIGRATED_BYTES),
    ("migration_byte_diffs", _names.METRIC_MIGRATION_BYTE_DIFFS),
    ("expired", _names.METRIC_EXPIRED),
    ("net_requests", _names.METRIC_NET_REQUESTS),
    ("net_attempts", _names.METRIC_NET_ATTEMPTS),
    ("net_retries", _names.METRIC_NET_RETRIES),
    ("net_timeouts", _names.METRIC_NET_TIMEOUTS),
    ("net_completed", _names.METRIC_NET_COMPLETED),
    ("net_failed", _names.METRIC_NET_FAILED),
    ("shed_total", _names.METRIC_NET_SHED),
    ("breaker_opens", _names.METRIC_BREAKER_OPENS),
    ("breaker_fast_fails", _names.METRIC_BREAKER_FAST_FAILS),
    ("duplicates_suppressed", _names.METRIC_DUPLICATES_SUPPRESSED),
    ("duplicates_served", _names.METRIC_DUPLICATES_SERVED),
)

#: Attribute -> instrument name for the migrated labeled counters.  A
#: :class:`~repro.obs.registry.LabeledCounter` *is* a ``defaultdict(int)``,
#: so ``stats.failover_reasons[reason] += 1`` call sites are untouched.
_MIGRATED_LABELED = (
    ("failover_reasons", _names.METRIC_FAILOVERS_BY_REASON),
    ("per_tenant_failovers", _names.METRIC_FAILOVERS_BY_TENANT),
    ("migration_failure_reasons", _names.METRIC_MIGRATION_FAILURES_BY_REASON),
    ("per_tenant_expired", _names.METRIC_EXPIRED_BY_TENANT),
    ("net_failure_reasons", _names.METRIC_NET_FAILURES_BY_REASON),
    ("per_priority_requests", _names.METRIC_NET_REQUESTS_BY_PRIORITY),
    ("per_priority_completed", _names.METRIC_NET_COMPLETED_BY_PRIORITY),
    ("per_priority_shed", _names.METRIC_NET_SHED_BY_PRIORITY),
)

#: Sojourns each reservoir keeps (exact below it), and the seed of their forks.
RESERVOIR_CAPACITY = 50_000
RESERVOIR_SEED = 0x0F1EE7

#: What :meth:`FleetStatistics.totals` carries and ``absorb`` adds: the plain
#: integer attributes, and the per-tenant / per-card ``defaultdict(int)``s.
_SUMMED = (
    "arrivals", "dispatched", "rejected", "completed", "hits", "misses",
    "total_wait_ns", "total_service_ns", "total_sojourn_ns",
)
_SUMMED_BY_KEY = (
    "per_tenant_arrivals", "per_tenant_completed", "per_tenant_dispatched",
    "per_tenant_rejected", "per_tenant_hits", "per_card_dispatched",
)


class FleetStatistics:
    """Aggregates over one fleet run.

    ``mode`` selects the sojourn-percentile machinery:

    * ``"reservoir"`` (default) — seeded reservoir samples, exact for traces
      shorter than the capacity.  This is the historical behaviour; every
      pre-existing digest and report is produced in this mode.
    * ``"sketch"`` — O(1)-memory streaming quantile sketches
      (:class:`~repro.analysis.sketch.StreamingQuantileSketch`).  No RNG is
      consumed, percentiles are within the sketch's ``RELATIVE_ERROR``
      relative value error of exact mode, and per-shard instances merge
      (:meth:`totals` / :meth:`absorb`) — the mode the 10^6-request scale
      runs use and the only one the sharded runner can.

    The schedule digest is mode-independent: it hashes the completion and
    rejection streams only, so a sketch-mode run of the same schedule
    fingerprints identically to a reservoir-mode run.
    """

    def __init__(
        self, mode: str = "reservoir", registry: Optional[MetricsRegistry] = None
    ) -> None:
        if mode not in ("reservoir", "sketch"):
            raise ValueError(f"unknown statistics mode {mode!r}")
        self.mode = mode
        #: The reliability/migration/net counters live on a metrics registry
        #: (one per statistics object unless an
        #: :class:`~repro.obs.Observability` supplies a shared one); the
        #: class-level descriptors keep the attribute API identical.
        self.registry = registry if registry is not None else MetricsRegistry()
        instruments = self.__dict__
        for attr, metric in _MIGRATED_COUNTERS:
            instruments["_c_" + attr] = self.registry.counter(metric)
        for attr, metric in _MIGRATED_LABELED:
            instruments[attr] = self.registry.labeled_counter(metric)
        self._rng = SeededRandom(RESERVOIR_SEED)
        #: When a list (sharded execution), every completion, rejection and
        #: expiry also appends ``(at_ns, started_ns, line)`` here: its digest
        #: line under the key that orders it among other shards' lines (a
        #: rejection or expiry has no service start and keys as ``(now,
        #: now)``, behind its instant's completions).
        self.digest_tap: Optional[list] = None
        #: Optional passive SLO evaluator (:class:`~repro.obs.slo.SloEngine`)
        #: fed from the record paths below — one ``is None`` check per
        #: record, the same no-cost-when-absent shape as ``digest_tap``.
        #: The engine never touches ``_note``, so schedule digests are
        #: byte-identical with SLOs on or off.
        self.slo_engine = None
        self.arrivals = 0
        self.dispatched = 0
        self.rejected = 0
        self.completed = 0
        self.hits = 0
        self.misses = 0
        self.total_wait_ns = 0
        self.total_service_ns = 0
        self.total_sojourn_ns = 0
        self.first_arrival_ns: Optional[int] = None
        self.last_completion_ns = 0
        self.per_tenant_arrivals: Dict[str, int] = defaultdict(int)
        self.per_tenant_completed: Dict[str, int] = defaultdict(int)
        self.per_tenant_dispatched: Dict[str, int] = defaultdict(int)
        self.per_tenant_rejected: Dict[str, int] = defaultdict(int)
        self.per_tenant_hits: Dict[str, int] = defaultdict(int)
        #: The dispatcher's per-card routing attribution; service-side
        #: counters (served, busy time) live on FleetCard, the single source
        #: of truth the card summaries report.
        self.per_card_dispatched: Dict[str, int] = defaultdict(int)
        self._per_tenant_sojourn: Dict[str, object] = {}
        self._fleet_sojourn = self._new_sojourn("fleet")
        self._digest = hashlib.sha256()
        # Digest lines are buffered and folded into the SHA in batches; the
        # hashed byte stream is identical (SHA-256 is a pure function of the
        # concatenated stream), but million-request runs pay one C call per
        # batch instead of one per completion.  ``schedule_digest`` flushes.
        self._digest_parts: List[bytes] = []
        # --- reliability (PR 4: repro.faults) ------------------------------
        # The scalar counters (card_failures, failovers, heal_*,
        # hazard_completions — completions over CRC-mismatching frames the
        # host saw as STATUS_OK) and the by-reason/by-tenant families are
        # registry instruments created above; only the non-counter state
        # lives here.
        self.card_down_since: Dict[str, int] = {}
        self.total_heal_latency_ns = 0
        # --- rebalancing (PR 5: live migration + defrag) -------------------
        # migration_* counters — including migration_byte_diffs, the
        # migration-safety property the E11 acceptance gate asserts stays
        # zero — are registry instruments created above.
        self.total_migration_latency_ns = 0
        # --- deadlines + network front door (PR 7: repro.net) --------------
        # The client-visible counters (net_requests issues exactly once into
        # net_completed or net_failed-by-reason; expired requests failed
        # fast, never served late; gateway dedup suppressed/served) are
        # registry instruments created above.  A counter with no digest line
        # (requests, attempts, retries, timeouts, fast fails, duplicates) is
        # written by the net hop that observes the fact, on the instrument
        # itself; this class reads it and records only what also owes a
        # digest line or a latency.
        self.total_net_latency_ns = 0
        #: Set by :func:`repro.cluster.sharded.merge_digest_lines`: lines
        #: whose cross-shard order its merge key could not decide (the merged
        #: digest is only guaranteed to equal the single-process one when 0).
        self.unordered_merge_ties = 0
        #: Network-time-inclusive end-to-end latency recorder (first client
        #: send to response delivery).  Built lazily so fleets that never see
        #: network traffic keep their historical memory footprint.
        self._net_latency = None

    # --------------------------------------------------------------- plumbing
    def _note(self, line: bytes) -> None:
        """Append one line to the schedule-digest stream (batched SHA fold)."""
        parts = self._digest_parts
        parts.append(line)
        if len(parts) >= 256:
            self._digest.update(b"".join(parts))
            parts.clear()

    def _new_sojourn(self, label: str):
        """One sojourn recorder — a reservoir or a sketch, same `.add` API."""
        if self.mode == "sketch":
            return StreamingQuantileSketch()
        return ReservoirSampler(RESERVOIR_CAPACITY, self._rng.fork(label))

    def totals(self) -> dict:
        """Everything order-free this (sketch-mode) run accumulated, picklable.

        The dispatch-path counters, time totals, per-key counts, first/last
        instants and the sojourn sketches: what :meth:`absorb` adds up.  The
        registry counters are not carried — a shard is a plain
        static-routing fleet with no fault, migration or net layer.
        """
        totals = {name: getattr(self, name) for name in _SUMMED}
        totals.update((name, dict(getattr(self, name))) for name in _SUMMED_BY_KEY)
        totals["first_arrival_ns"] = self.first_arrival_ns
        totals["last_completion_ns"] = self.last_completion_ns
        totals["fleet_sojourn"] = self._fleet_sojourn
        totals["per_tenant_sojourn"] = self._per_tenant_sojourn
        return totals

    def absorb(self, totals: dict) -> None:
        """Add another run's :meth:`totals` to this one's.

        Integers add and sketches add bucket counts, so absorbing every
        shard's totals gives exactly what one run over all of them records.
        """
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + totals[name])
        for name in _SUMMED_BY_KEY:
            mine = getattr(self, name)
            for key, count in totals[name].items():
                mine[key] += count
        first = totals["first_arrival_ns"]
        if first is not None and (
            self.first_arrival_ns is None or first < self.first_arrival_ns
        ):
            self.first_arrival_ns = first
        if totals["last_completion_ns"] > self.last_completion_ns:
            self.last_completion_ns = totals["last_completion_ns"]
        self._fleet_sojourn.merge(totals["fleet_sojourn"])
        for tenant, sketch in totals["per_tenant_sojourn"].items():
            mine = self._per_tenant_sojourn.get(tenant)
            if mine is None:
                mine = self._per_tenant_sojourn[tenant] = self._new_sojourn(
                    f"tenant:{tenant}"
                )
            mine.merge(sketch)

    # ------------------------------------------------------------- recording
    def record_rejection(self, tenant: str, function: str, now_ns: int) -> None:
        self.rejected += 1
        self.per_tenant_rejected[tenant] += 1
        line = f"reject|{tenant}|{function}|{now_ns!r}".encode()
        self._note(line)
        if self.digest_tap is not None:
            self.digest_tap.append((now_ns, now_ns, line))
        if self.slo_engine is not None:
            self.slo_engine.on_fleet_bad(now_ns)

    def record_card_failure(self, card_name: str, now_ns: int) -> None:
        self.card_failures += 1
        self.card_down_since.setdefault(card_name, now_ns)
        self._note(f"kill|{card_name}|{now_ns!r}".encode())

    def record_failover(
        self, tenant: str, function: str, card_name: str, reason: str, now_ns: int
    ) -> None:
        self.failovers += 1
        self.per_tenant_failovers[tenant] += 1
        self.failover_reasons[reason] += 1
        self._note(
            f"failover|{tenant}|{function}|{card_name}|{reason}|{now_ns!r}".encode()
        )

    def record_heal_order(self, function: str, card_name: str, killed_at_ns: int) -> None:
        self.heal_orders += 1
        self._note(f"heal-order|{function}|{card_name}|{killed_at_ns!r}".encode())

    def record_heal(
        self, function: str, card_name: str, killed_at_ns: int, completed_ns: int
    ) -> None:
        self.heals_completed += 1
        self.total_heal_latency_ns += completed_ns - killed_at_ns
        self._note(
            f"heal|{function}|{card_name}|{killed_at_ns!r}|{completed_ns!r}".encode()
        )

    def record_migration_order(
        self, function: str, source: str, dest: str, now_ns: int
    ) -> None:
        self.migration_orders += 1
        self._note(f"mig-order|{function}|{source}|{dest}|{now_ns!r}".encode())

    def record_migration_failed(
        self, function: str, card_name: str, reason: str, now_ns: int
    ) -> None:
        self.migrations_failed += 1
        self.migration_failure_reasons[reason] += 1
        self._note(
            f"mig-fail|{function}|{card_name}|{reason}|{now_ns!r}".encode()
        )

    def record_migration(
        self,
        function: str,
        source: str,
        dest: str,
        ordered_ns: int,
        completed_ns: int,
        frames: int,
        blob_bytes: int,
        byte_identical: bool,
    ) -> None:
        self.migrations_completed += 1
        self.migrated_frames += frames
        self.migrated_bytes += blob_bytes
        self.total_migration_latency_ns += completed_ns - ordered_ns
        if not byte_identical:
            self.migration_byte_diffs += 1
        self._note(
            f"mig|{function}|{source}|{dest}|{ordered_ns!r}|{completed_ns!r}|"
            f"{frames}|{blob_bytes}|{int(byte_identical)}".encode()
        )

    # Deadline / network-front-door recording (PR 7).  Every digest line in
    # this block only occurs when deadlines or the net layer are in use, so
    # legacy runs keep the schedule digests they had before either existed.
    def record_expired(self, tenant: str, function: str, now_ns: int) -> None:
        self.expired += 1
        self.per_tenant_expired[tenant] += 1
        line = f"expire|{tenant}|{function}|{now_ns!r}".encode()
        self._note(line)
        if self.digest_tap is not None:
            self.digest_tap.append((now_ns, now_ns, line))
        if self.slo_engine is not None:
            self.slo_engine.on_fleet_bad(now_ns)

    def record_net_completion(
        self,
        request_id: int,
        tenant: str,
        function: str,
        priority: int,
        first_send_ns: int,
        completed_ns: int,
        attempts: int,
    ) -> None:
        self._c_net_completed.value += 1
        self.per_priority_completed[priority] += 1
        latency_ns = completed_ns - first_send_ns
        self.total_net_latency_ns += latency_ns
        if self._net_latency is None:
            self._net_latency = self._new_sojourn("net")
        self._net_latency.add(latency_ns)
        self._note(
            f"net-done|{request_id}|{tenant}|{function}|{attempts}|"
            f"{first_send_ns!r}|{completed_ns!r}".encode()
        )
        if self.slo_engine is not None:
            self.slo_engine.on_net_completion(completed_ns, latency_ns)

    def record_net_failure(
        self, request_id: int, tenant: str, priority: int, reason: str, now_ns: int
    ) -> None:
        self._c_net_failed.value += 1
        self.net_failure_reasons[reason] += 1
        self._note(f"net-fail|{request_id}|{tenant}|{reason}|{now_ns!r}".encode())
        if self.slo_engine is not None:
            self.slo_engine.on_net_bad(now_ns)

    def record_shed(self, tenant: str, priority: int, now_ns: int) -> None:
        self._c_shed_total.value += 1
        self.per_priority_shed[priority] += 1
        self._note(f"shed|{tenant}|{priority}|{now_ns!r}".encode())

    def record_breaker_open(self, gateway_name: str, now_ns: int) -> None:
        self._c_breaker_opens.value += 1
        self._note(f"breaker|{gateway_name}|{now_ns!r}".encode())

    def record_completion(
        self,
        tenant: str,
        function: str,
        card_name: str,
        hit: bool,
        arrival_ns: int,
        started_ns: int,
        completed_ns: int,
        hazard: bool = False,
    ) -> None:
        self.completed += 1
        if hit:
            self.hits += 1
            self.per_tenant_hits[tenant] += 1
        else:
            self.misses += 1
        sojourn_ns = completed_ns - arrival_ns
        self.total_wait_ns += started_ns - arrival_ns
        self.total_service_ns += completed_ns - started_ns
        self.total_sojourn_ns += sojourn_ns
        if completed_ns > self.last_completion_ns:
            self.last_completion_ns = completed_ns
        self.per_tenant_completed[tenant] += 1
        sampler = self._per_tenant_sojourn.get(tenant)
        if sampler is None:
            sampler = self._new_sojourn(f"tenant:{tenant}")
            self._per_tenant_sojourn[tenant] = sampler
        fleet_sojourn = self._fleet_sojourn
        if self.mode == "sketch":
            # The tenant and fleet sojourn sketches share geometry, so the
            # bucket index (the only log() on this path) is computed once
            # and recorded into both.
            if sojourn_ns >= fleet_sojourn.min_value:
                index = fleet_sojourn.bucket_index(sojourn_ns)
                sampler.add_with_index(sojourn_ns, index)
                fleet_sojourn.add_with_index(sojourn_ns, index)
            else:
                sampler.add(sojourn_ns)
                fleet_sojourn.add(sojourn_ns)
        else:
            sampler.add(sojourn_ns)
            fleet_sojourn.add(sojourn_ns)
        # The hazard marker is appended only when set, so fault-free runs keep
        # the schedule digests they had before the fault layer existed.
        if hazard:
            self.hazard_completions += 1
            suffix = "|hz"
        else:
            suffix = ""
        line = (
            f"done|{tenant}|{function}|{card_name}|{1 if hit else 0}|"
            f"{arrival_ns!r}|{started_ns!r}|{completed_ns!r}{suffix}".encode()
        )
        parts = self._digest_parts
        parts.append(line)
        if len(parts) >= 256:
            self._digest.update(b"".join(parts))
            parts.clear()
        if self.digest_tap is not None:
            self.digest_tap.append((completed_ns, started_ns, line))
        if self.slo_engine is not None:
            self.slo_engine.on_fleet_completion(completed_ns, sojourn_ns)

    # -------------------------------------------------------------- derived
    @property
    def hit_rate(self) -> float:
        return self.hits / self.completed if self.completed else 0.0

    @property
    def reconfigurations(self) -> int:
        """Completed requests that paid an on-card reconfiguration (misses)."""
        return self.misses

    @property
    def mean_sojourn_ns(self) -> float:
        return self.total_sojourn_ns / self.completed if self.completed else 0.0

    @property
    def service_availability(self) -> float:
        """Fraction of arrivals the fleet actually completed.

        Rejections — whether from overload or from capacity lost to dead
        cards — are unavailability as the tenants experience it.
        """
        return self.completed / self.arrivals if self.arrivals else 1.0

    @property
    def client_availability(self) -> float:
        """Fraction of *client* requests completed through the front door.

        This is availability as the users behind the network experience it:
        retries that eventually succeed count as available, requests lost to
        deadlines/shedding/breakers count against it.  1.0 when the net layer
        is unused.
        """
        return self.net_completed / self.net_requests if self.net_requests else 1.0

    @property
    def mean_net_latency_ns(self) -> float:
        """Mean network-inclusive end-to-end latency (first send → response)."""
        return (
            self.total_net_latency_ns / self.net_completed if self.net_completed else 0.0
        )

    def net_latency_percentile(self, percentile: float) -> float:
        """Network-inclusive end-to-end latency percentile (0 when unused)."""
        if self._net_latency is None:
            return percentile_of([], percentile)
        return self._net_latency.percentile(percentile)

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of completions that executed over corrupted frames."""
        return self.hazard_completions / self.completed if self.completed else 0.0

    @property
    def mean_migration_latency_ns(self) -> float:
        """Mean order-to-release migration latency (0 when none completed)."""
        return (
            self.total_migration_latency_ns / self.migrations_completed
            if self.migrations_completed
            else 0.0
        )

    @property
    def mttr_ns(self) -> float:
        """Mean card-failure-to-heal-completion latency (0 when no heals)."""
        return (
            self.total_heal_latency_ns / self.heals_completed
            if self.heals_completed
            else 0.0
        )

    @property
    def makespan_ns(self) -> int:
        if self.first_arrival_ns is None:
            return 0
        return max(0, self.last_completion_ns - self.first_arrival_ns)

    @property
    def throughput_requests_per_s(self) -> float:
        span = self.makespan_ns
        if span <= 0:
            return 0.0
        return self.completed / (span / 1e9)

    def latency_percentile(self, percentile: float, tenant: Optional[str] = None) -> float:
        """Sojourn-time percentile fleet-wide, or for one tenant."""
        if tenant is None:
            return self._fleet_sojourn.percentile(percentile)
        sampler = self._per_tenant_sojourn.get(tenant)
        return percentile_of([], percentile) if sampler is None else sampler.percentile(percentile)

    def tenants(self) -> List[str]:
        """Every tenant seen — including fully-rejected ones, which are
        exactly the overload signal the per-tenant reports must not hide."""
        return sorted(
            set(self.per_tenant_arrivals)
            | set(self.per_tenant_completed)
            | set(self.per_tenant_rejected)
        )

    def schedule_digest(self) -> str:
        """Hex digest over the completion/rejection stream (determinism probe)."""
        parts = self._digest_parts
        if parts:
            self._digest.update(b"".join(parts))
            parts.clear()
        return self._digest.hexdigest()

    # ------------------------------------------------------------ reporting
    def per_tenant_summary(self, tenant: str) -> Dict[str, float]:
        completed = self.per_tenant_completed.get(tenant, 0)
        arrivals = self.per_tenant_arrivals.get(tenant, 0)
        rejected = self.per_tenant_rejected.get(tenant, 0)
        sampler = self._per_tenant_sojourn.get(tenant)
        p50, p95, p99 = (
            sampler.percentiles((50, 95, 99)) if sampler is not None else (0.0, 0.0, 0.0)
        )
        return {
            "arrivals": float(arrivals),
            "completed": float(completed),
            "rejected": float(rejected),
            "rejection_rate": rejected / arrivals if arrivals else 0.0,
            "hit_rate": self.per_tenant_hits.get(tenant, 0) / completed if completed else 0.0,
            "p50_sojourn_us": p50 / 1e3,
            "p95_sojourn_us": p95 / 1e3,
            "p99_sojourn_us": p99 / 1e3,
        }


# Install the registry-backed attribute descriptors (after the class body so
# the mapping above stays the single source of truth for the migration).
for _attr, _metric in _MIGRATED_COUNTERS:
    setattr(FleetStatistics, _attr, _CounterAttr(_attr))
del _attr, _metric
