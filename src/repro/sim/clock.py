"""Simulation time base: whole nanoseconds.

Every time value in the model — a clock reading, a delay, a timestamp in a
record or a span — is a Python ``int`` of nanoseconds.  There is no second
time type.  One rule keeps it that way:

* a value is **rounded** (half-even, the builtin ``round``) only where it is
  *computed* from a frequency, a rate or a random draw —
  :meth:`ClockDomain.cycles_to_ns`, the PCI/memory/software timing models, a
  link's serialise time and jitter, a backoff, a think time, an arrival or
  fault gap;
* it is **never** rounded where times are added or compared, so addition
  reassociates: ``(t + d1) + d2 == t + (d1 + d2)``, a cached duration replays
  exactly, and two processes that reach the same instant by different sums
  agree on it;
* at the kernel/clock boundary (:meth:`Clock.advance`, :meth:`Clock.advance_to`,
  :meth:`Clock.reset`, ``Timeout`` dispatch, ``schedule_call``,
  ``run(until_ns=)``) :func:`as_ns` converts an integral float and raises
  :class:`TypeError` for a fractional one — a float can never reach a clock.

The :class:`Clock` is shared by every component of a co-processor instance so
that transaction-level operations (a PCI burst, a ROM read, a frame write)
advance a single coherent notion of time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


class TimeUnit(enum.Enum):
    """Time units understood by :func:`format_time` and :meth:`Clock.now_in`."""

    NANOSECONDS = 1.0
    MICROSECONDS = 1e3
    MILLISECONDS = 1e6
    SECONDS = 1e9

    @property
    def suffix(self) -> str:
        return {
            TimeUnit.NANOSECONDS: "ns",
            TimeUnit.MICROSECONDS: "us",
            TimeUnit.MILLISECONDS: "ms",
            TimeUnit.SECONDS: "s",
        }[self]


def as_ns(value) -> int:
    """*value* as whole nanoseconds: an ``int`` as is, an integral float
    converted; anything fractional (or not a number) is a :class:`TypeError`."""
    if value.__class__ is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"time is whole nanoseconds; got {value!r}")


def format_time(nanoseconds: float) -> str:
    """Render a duration with a unit that keeps the mantissa readable.

    >>> format_time(1500.0)
    '1.500us'
    """
    value = float(nanoseconds)
    for unit in (TimeUnit.SECONDS, TimeUnit.MILLISECONDS, TimeUnit.MICROSECONDS):
        if abs(value) >= unit.value:
            return f"{value / unit.value:.3f}{unit.suffix}"
    return f"{value:.3f}ns"


@dataclass
class ClockDomain:
    """A named clock domain with a frequency, e.g. the FPGA fabric clock.

    Components convert between cycles in their own domain and the global
    nanosecond time base through the domain.
    """

    name: str
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"clock domain {self.name!r} needs a positive frequency")

    @property
    def period_ns(self) -> float:
        """Length of one cycle in nanoseconds."""
        return 1e9 / self.frequency_hz

    def cycles_to_ns(self, cycles: float) -> int:
        """Convert a cycle count in this domain to whole nanoseconds."""
        return round(cycles * self.period_ns)

    def ns_to_cycles(self, nanoseconds: float) -> float:
        """Convert nanoseconds to (possibly fractional) cycles in this domain."""
        return nanoseconds / self.period_ns


class Clock:
    """Monotonic simulation clock shared by the components of one system.

    The clock never moves backwards; :meth:`advance` adds a delay and
    :meth:`advance_to` jumps forward to an absolute time.  Observers may be
    registered to be notified on every advance (used by the trace recorder).
    """

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now = as_ns(start_ns)
        self._observers: List[Callable[[int, int], None]] = []
        self._domains: dict[str, ClockDomain] = {}

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def now_in(self, unit: TimeUnit) -> float:
        """Current simulation time expressed in *unit*."""
        return self._now / unit.value

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by *delta_ns* nanoseconds and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta_ns}")
        if delta_ns.__class__ is not int:  # as_ns, inlined for the common case
            delta_ns = as_ns(delta_ns)
        previous = self._now
        self._now += delta_ns
        self._notify(previous, self._now)
        return self._now

    def advance_to(self, time_ns: int) -> int:
        """Advance the clock to the absolute time *time_ns* (no-op if in the past)."""
        if time_ns > self._now:
            previous = self._now
            self._now = as_ns(time_ns)
            self._notify(previous, self._now)
        return self._now

    def reset(self, start_ns: int = 0) -> None:
        """Reset the clock (used between benchmark repetitions)."""
        if start_ns < 0:
            raise ValueError("clock cannot be reset to a negative time")
        self._now = as_ns(start_ns)

    # ------------------------------------------------------------- observers
    def add_observer(self, callback: Callable[[int, int], None]) -> None:
        """Register *callback(previous_ns, new_ns)* to run on every advance."""
        self._observers.append(callback)

    def remove_observer(self, callback: Callable[[int, int], None]) -> None:
        self._observers.remove(callback)

    def _notify(self, previous: int, new: int) -> None:
        for callback in self._observers:
            callback(previous, new)

    # --------------------------------------------------------------- domains
    def register_domain(self, domain: ClockDomain) -> ClockDomain:
        """Register a named clock domain; returns the domain for chaining."""
        if domain.name in self._domains:
            raise ValueError(f"clock domain {domain.name!r} already registered")
        self._domains[domain.name] = domain
        return domain

    def domain(self, name: str) -> ClockDomain:
        """Look up a registered clock domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise KeyError(f"unknown clock domain {name!r}") from None

    @property
    def domains(self) -> Tuple[ClockDomain, ...]:
        return tuple(self._domains.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Clock(now={format_time(self._now)})"


@dataclass
class Stopwatch:
    """Measures elapsed simulation time between two points.

    >>> clock = Clock()
    >>> watch = Stopwatch(clock).start()
    >>> _ = clock.advance(125)
    >>> watch.elapsed_ns
    125
    """

    clock: Clock
    _start: Optional[int] = field(default=None, init=False)
    _stop: Optional[int] = field(default=None, init=False)

    def start(self) -> "Stopwatch":
        self._start = self.clock.now
        self._stop = None
        return self

    def stop(self) -> int:
        if self._start is None:
            raise RuntimeError("stopwatch was never started")
        self._stop = self.clock.now
        return self.elapsed_ns

    @property
    def elapsed_ns(self) -> int:
        if self._start is None:
            raise RuntimeError("stopwatch was never started")
        end = self._stop if self._stop is not None else self.clock.now
        return end - self._start
