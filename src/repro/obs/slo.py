"""Declarative SLOs with multi-window burn-rate alerting.

PR 8 gave the stack senses; this module gives it judgement.  A
:class:`SloSpec` declares an objective over one of the record streams the
:class:`~repro.cluster.stats.FleetStatistics` object already sees —
availability (terminal outcomes), a latency percentile under a threshold, or
the silent-corruption budget — and a :class:`SloEngine` evaluates it
passively as those records flow past.  No kernel events, no RNG, no calls
into the schedule-digest path: the engine is pure arithmetic over a
:class:`~repro.analysis.sketch.WindowedTimeSeries` on the simulated clock,
so enabling SLOs can never perturb a workload (the ``obs`` section of
``benchmarks/fingerprints.py`` asserts exactly that).

Burn-rate semantics follow SRE practice: with error budget
``1 - objective``, the *burn rate* over a trailing window is
``(bad / total) / budget`` — 1.0 means "spending budget exactly as fast as
the objective allows".  Each :class:`BurnWindow` pairs a fast window (quick
detection, noisy) with a slow window (confirmation, stable); an
:class:`Alert` fires only when **both** trailing burns clear the threshold,
and resolves with hysteresis once the fast burn drops back under it.  A
``min_events`` floor on the fast window keeps a single early failure from
alerting an idle system.

Everything the engine emits — :class:`Alert` records, the burn-rate status
table — is a deterministic function of (specs, record stream), byte-stable
across processes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.analysis.sketch import WindowedTimeSeries
from repro.obs import names
from repro.obs.registry import MetricsRegistry


class BurnWindow:
    """One fast/slow trailing-window pair with a shared burn threshold."""

    __slots__ = ("label", "fast_ns", "slow_ns", "burn_threshold")

    def __init__(
        self, label: str, fast_ns: int, slow_ns: int, burn_threshold: float
    ) -> None:
        if fast_ns <= 0 or slow_ns <= 0:
            raise ValueError("burn windows must be positive")
        if fast_ns >= slow_ns:
            raise ValueError("the fast window must be shorter than the slow one")
        if burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")
        self.label = label
        self.fast_ns = fast_ns
        self.slow_ns = slow_ns
        self.burn_threshold = float(burn_threshold)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BurnWindow({self.label!r}, fast={self.fast_ns:.0f}ns, "
            f"slow={self.slow_ns:.0f}ns, x{self.burn_threshold:g})"
        )


#: What the SLO measures.
KIND_AVAILABILITY = "availability"
KIND_LATENCY = "latency"
KIND_CORRUPTION = "corruption"
_KINDS = (KIND_AVAILABILITY, KIND_LATENCY, KIND_CORRUPTION)

#: Which record stream feeds it.
SOURCE_FLEET = "fleet"
SOURCE_NET = "net"
_SOURCES = (SOURCE_FLEET, SOURCE_NET)


class SloSpec:
    """One declarative objective: what counts as *bad*, and how fast bad
    may accumulate before someone should look."""

    __slots__ = (
        "name",
        "kind",
        "objective",
        "source",
        "threshold_ns",
        "windows",
        "min_events",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        objective: float,
        source: str = SOURCE_FLEET,
        threshold_ns: Optional[int] = None,
        windows: Sequence[BurnWindow] = (),
        min_events: int = 10,
    ) -> None:
        if not names.NAME_RE.match(name):
            raise ValueError(
                f"SLO name {name!r} violates the naming convention "
                f"(lower-case dotted, [a-z0-9_.] only)"
            )
        if kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {kind!r} (want one of {_KINDS})")
        if source not in _SOURCES:
            raise ValueError(f"unknown SLO source {source!r} (want one of {_SOURCES})")
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1) — 1.0 leaves no budget")
        if kind == KIND_LATENCY:
            if threshold_ns is None or threshold_ns <= 0:
                raise ValueError("latency SLOs need a positive threshold_ns")
        elif threshold_ns is not None:
            raise ValueError(f"threshold_ns only applies to {KIND_LATENCY!r} SLOs")
        if not windows:
            raise ValueError("an SLO needs at least one burn window")
        if min_events < 1:
            raise ValueError("min_events must be positive")
        self.name = name
        self.kind = kind
        self.objective = float(objective)
        self.source = source
        self.threshold_ns = threshold_ns
        self.windows = tuple(windows)
        self.min_events = int(min_events)

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    # ------------------------------------------------------------ shorthands
    @classmethod
    def availability(
        cls,
        name: str,
        objective: float = 0.99,
        source: str = SOURCE_FLEET,
        fast_ns: int = 200_000,
        slow_ns: int = 1_000_000,
        burn_threshold: float = 4.0,
        min_events: int = 10,
    ) -> "SloSpec":
        """Fraction of requests reaching a successful terminal outcome."""
        return cls(
            name,
            KIND_AVAILABILITY,
            objective,
            source=source,
            windows=(BurnWindow("burn", fast_ns, slow_ns, burn_threshold),),
            min_events=min_events,
        )

    @classmethod
    def latency(
        cls,
        name: str,
        threshold_ns: int,
        objective: float = 0.95,
        source: str = SOURCE_FLEET,
        fast_ns: int = 200_000,
        slow_ns: int = 1_000_000,
        burn_threshold: float = 4.0,
        min_events: int = 10,
    ) -> "SloSpec":
        """Fraction of completions finishing under ``threshold_ns``."""
        return cls(
            name,
            KIND_LATENCY,
            objective,
            source=source,
            threshold_ns=threshold_ns,
            windows=(BurnWindow("burn", fast_ns, slow_ns, burn_threshold),),
            min_events=min_events,
        )

    @classmethod
    def corruption(
        cls,
        name: str,
        objective: float = 0.999,
        fast_ns: int = 500_000,
        slow_ns: int = 2_000_000,
        burn_threshold: float = 2.0,
        min_events: int = 10,
    ) -> "SloSpec":
        """Fraction of completions *not* flagged as silent-corruption
        hazards (fleet source only — the net tier can't see hazards)."""
        return cls(
            name,
            KIND_CORRUPTION,
            objective,
            source=SOURCE_FLEET,
            windows=(BurnWindow("burn", fast_ns, slow_ns, burn_threshold),),
            min_events=min_events,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SloSpec({self.name!r}, {self.kind}, {self.objective:g}, {self.source})"


class Alert:
    """One deterministic burn-rate alert on the simulated clock."""

    __slots__ = (
        "slo",
        "window",
        "fired_ns",
        "resolved_ns",
        "burn_fast",
        "burn_slow",
    )

    def __init__(
        self,
        slo: str,
        window: str,
        fired_ns: int,
        burn_fast: float,
        burn_slow: float,
    ) -> None:
        self.slo = slo
        self.window = window
        self.fired_ns = fired_ns
        self.resolved_ns: Optional[int] = None
        self.burn_fast = burn_fast
        self.burn_slow = burn_slow

    @property
    def active(self) -> bool:
        return self.resolved_ns is None

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "window": self.window,
            "fired_ns": self.fired_ns,
            "resolved_ns": self.resolved_ns,
            "burn_fast": round(self.burn_fast, 6),
            "burn_slow": round(self.burn_slow, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else f"resolved@{self.resolved_ns}"
        return f"Alert({self.slo!r} @{self.fired_ns} x{self.burn_fast:.1f}, {state})"


class _SloState:
    """Mutable per-spec evaluation state: one windowed series + alert state."""

    __slots__ = ("spec", "series", "active", "worst_burn", "last_burns")

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        fast = min(window.fast_ns for window in spec.windows)
        slow = max(window.slow_ns for window in spec.windows)
        # Quarter-fast grain gives the fast burn four samples of resolution;
        # the ring must retain the whole slow horizon (plus slack for the
        # window straddling `now`).
        grain = max(1, fast // 4)
        self.series = WindowedTimeSeries(
            window_ns=grain, max_windows=slow // grain + 8
        )
        #: window label -> active Alert (hysteresis state).
        self.active: dict = {}
        self.worst_burn = 0.0
        #: window label -> (burn_fast, burn_slow) from the last evaluation.
        self.last_burns: dict = {}


class SloEngine:
    """Evaluates every spec passively as fleet/net records flow past.

    Instantiated by :class:`~repro.obs.Observability` and fed by
    :class:`~repro.cluster.stats.FleetStatistics` behind a single
    ``is None`` check — the same no-cost-when-absent discipline the tracer
    follows.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        specs = list(specs)
        seen = set()
        for spec in specs:
            if spec.name in seen:
                raise ValueError(f"duplicate SLO name {spec.name!r}")
            seen.add(spec.name)
        self.specs = specs
        self._fleet_states = [
            _SloState(spec) for spec in specs if spec.source == SOURCE_FLEET
        ]
        self._net_states = [
            _SloState(spec) for spec in specs if spec.source == SOURCE_NET
        ]
        self.alerts: List[Alert] = []
        #: Hooks the flight recorder installs.
        self.on_alert: Optional[Callable[[Alert, int], None]] = None
        self.on_resolve: Optional[Callable[[Alert, int], None]] = None
        self._registry = registry
        if registry is not None:
            self._alerts_total = registry.counter(names.METRIC_SLO_ALERTS)
            self._alerts_by_slo = registry.labeled_counter(
                names.METRIC_SLO_ALERTS_BY_SLO
            )
            self._alerts_resolved = registry.counter(names.METRIC_SLO_ALERTS_RESOLVED)
            self._worst_burn = registry.gauge(names.GAUGE_SLO_WORST_BURN)
        else:
            self._alerts_total = None
            self._alerts_by_slo = None
            self._alerts_resolved = None
            self._worst_burn = None

    # ----------------------------------------------------------------- feeds
    def on_fleet_completion(
        self, now_ns: int, sojourn_ns: int, hazard: bool
    ) -> None:
        for state in self._fleet_states:
            spec = state.spec
            if spec.kind == KIND_AVAILABILITY:
                bad = 0.0
            elif spec.kind == KIND_LATENCY:
                bad = 1.0 if sojourn_ns > spec.threshold_ns else 0.0
            else:  # corruption
                bad = 1.0 if hazard else 0.0
            state.series.record(now_ns, bad)
            self._evaluate(state, now_ns)

    def on_fleet_bad(self, now_ns: int) -> None:
        """A rejection or deadline expiry — bad for availability, invisible
        to latency/corruption SLOs (they judge completions only)."""
        for state in self._fleet_states:
            if state.spec.kind == KIND_AVAILABILITY:
                state.series.record(now_ns, 1.0)
                self._evaluate(state, now_ns)

    def on_net_completion(self, now_ns: int, latency_ns: int) -> None:
        for state in self._net_states:
            spec = state.spec
            if spec.kind == KIND_LATENCY:
                bad = 1.0 if latency_ns > spec.threshold_ns else 0.0
            else:  # availability (corruption never has a net source)
                bad = 0.0
            state.series.record(now_ns, bad)
            self._evaluate(state, now_ns)

    def on_net_bad(self, now_ns: int) -> None:
        for state in self._net_states:
            if state.spec.kind == KIND_AVAILABILITY:
                state.series.record(now_ns, 1.0)
                self._evaluate(state, now_ns)

    # ------------------------------------------------------------ evaluation
    def _evaluate(self, state: _SloState, now_ns: int) -> None:
        spec = state.spec
        budget = spec.error_budget
        for window in spec.windows:
            fast_count, fast_bad = state.series.trailing(now_ns, window.fast_ns)
            slow_count, slow_bad = state.series.trailing(now_ns, window.slow_ns)
            burn_fast = (fast_bad / fast_count / budget) if fast_count else 0.0
            burn_slow = (slow_bad / slow_count / budget) if slow_count else 0.0
            state.last_burns[window.label] = (burn_fast, burn_slow)
            if burn_fast > state.worst_burn:
                state.worst_burn = burn_fast
                if self._worst_burn is not None:
                    worst = max(s.worst_burn for s in self._states())
                    self._worst_burn.set(round(worst, 6))
            active = state.active.get(window.label)
            if active is None:
                if (
                    fast_count >= spec.min_events
                    and burn_fast >= window.burn_threshold
                    and burn_slow >= window.burn_threshold
                ):
                    alert = Alert(spec.name, window.label, now_ns, burn_fast, burn_slow)
                    self.alerts.append(alert)
                    state.active[window.label] = alert
                    if self._alerts_total is not None:
                        self._alerts_total.inc()
                        self._alerts_by_slo.inc(spec.name)
                    if self.on_alert is not None:
                        self.on_alert(alert, now_ns)
            elif burn_fast < window.burn_threshold:
                active.resolved_ns = now_ns
                del state.active[window.label]
                if self._alerts_resolved is not None:
                    self._alerts_resolved.inc()
                if self.on_resolve is not None:
                    self.on_resolve(active, now_ns)

    def _states(self):
        return self._fleet_states + self._net_states

    # --------------------------------------------------------------- queries
    def status(self) -> List[dict]:
        """One burn-rate table row per (spec, window) — deterministic order."""
        rows = []
        for state in self._states():
            spec = state.spec
            total = state.series.total_count
            bad = state.series.total_value
            for window in spec.windows:
                burn_fast, burn_slow = state.last_burns.get(window.label, (0.0, 0.0))
                rows.append(
                    {
                        "slo": spec.name,
                        "kind": spec.kind,
                        "objective": spec.objective,
                        "window": window.label,
                        "events": int(total),
                        "bad": int(bad),
                        "burn_fast": round(burn_fast, 4),
                        "burn_slow": round(burn_slow, 4),
                        "threshold": window.burn_threshold,
                        "alerting": window.label in state.active,
                        "worst_burn": round(state.worst_burn, 4),
                    }
                )
        return rows


__all__ = [
    "Alert",
    "BurnWindow",
    "SloEngine",
    "SloSpec",
]
