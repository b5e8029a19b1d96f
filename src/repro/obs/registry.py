"""A small typed metrics registry: counters, gauges and labeled counters under
one naming discipline.

Before this module the repo had five hand-rolled accounting schemes
(``FleetStatistics`` scalars, link packet counters, gateway/breaker tallies,
scrubber stats, migration stats).  The registry gives them one home without
changing any of their public faces: :class:`~repro.cluster.stats.
FleetStatistics` keeps its attribute API (``stats.net_requests += 1`` still
works — the attributes are descriptors over registry counters), links and
gateways are aggregated through callback gauges, and everything lands in one
:meth:`MetricsRegistry.snapshot` for export.

Instrument names are validated against
:data:`repro.obs.names.NAME_PATTERN` and must be unique per registry — the
registration-time enforcement of the naming lint.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Optional

from repro.obs.names import NAME_RE


class Counter:
    """A monotonically-meant scalar (writable, so migrations stay drop-in)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time scalar: either set explicitly or read via callback."""

    __slots__ = ("name", "fn", "value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.fn = fn
        self.value = 0

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise RuntimeError(f"gauge {self.name!r} is callback-backed")
        self.value = value

    def read(self) -> float:
        return self.fn() if self.fn is not None else self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.read()})"


class LabeledCounter(defaultdict):
    """A counter family keyed by label — a drop-in ``defaultdict(int)``.

    Subclassing keeps every existing call site (``reasons[key] += 1``,
    ``dict(reasons)``, ``sorted(reasons.items())``) byte-for-byte unchanged
    while the family participates in registry snapshots.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(int)
        self.name = name

    def inc(self, label: Any, amount: int = 1) -> None:
        self[label] += amount


class MetricsRegistry:
    """One namespace of uniquely-named, pattern-checked instruments."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    # ---------------------------------------------------------- registration
    def _register(self, name: str, instrument):
        if not NAME_RE.match(name):
            raise ValueError(
                f"instrument name {name!r} violates the naming convention "
                f"(lower-case dotted, [a-z0-9_.] only)"
            )
        if name in self._instruments:
            raise ValueError(f"instrument {name!r} is already registered")
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(name, Gauge(name, fn))

    def labeled_counter(self, name: str) -> LabeledCounter:
        return self._register(name, LabeledCounter(name))

    # --------------------------------------------------------------- queries
    def get(self, name: str):
        return self._instruments[name]

    def snapshot(self) -> Dict[str, object]:
        """A flat, deterministic picture of every instrument.

        Counters/gauges flatten to scalars; labeled counters to
        ``{str(label): count}`` dicts (sorted).  Key order is sorted, so ``json.dumps(..., sort_keys=
        True)`` of a snapshot is byte-stable for a fixed seed.
        """
        out: Dict[str, object] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = instrument.read()
            else:  # LabeledCounter
                out[name] = {
                    str(label): count
                    for label, count in sorted(
                        instrument.items(), key=lambda item: str(item[0])
                    )
                }
        return out
