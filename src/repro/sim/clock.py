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
  ``Timeout`` dispatch, ``schedule_call``, ``run(until_ns=)``) :func:`as_ns` converts an integral float and raises
  :class:`TypeError` for a fractional one — a float can never reach a clock.

The :class:`Clock` is shared by every component of a co-processor instance so
that transaction-level operations (a PCI burst, a ROM read, a frame write)
advance a single coherent notion of time.
"""

from __future__ import annotations

from dataclasses import dataclass


def as_ns(value) -> int:
    """*value* as whole nanoseconds: an ``int`` as is, an integral float
    converted; anything fractional (or not a number) is a :class:`TypeError`."""
    if value.__class__ is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"time is whole nanoseconds; got {value!r}")


@dataclass
class ClockDomain:
    """A named clock domain with a frequency, e.g. the FPGA fabric clock.

    Components convert cycles in their own domain to the global nanosecond
    time base through the domain.
    """

    name: str
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"clock domain {self.name!r} needs a positive frequency")
        #: Length of one cycle in nanoseconds.
        self.period_ns = 1e9 / self.frequency_hz

    def cycles_to_ns(self, cycles: float) -> int:
        """Convert a cycle count in this domain to whole nanoseconds."""
        return round(cycles * self.period_ns)


class Clock:
    """Monotonic simulation clock shared by the components of one system.

    The clock never moves backwards; :meth:`advance` adds a delay and
    :meth:`advance_to` jumps forward to an absolute time.
    """

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by *delta_ns* nanoseconds and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta_ns}")
        if delta_ns.__class__ is not int:  # as_ns, inlined for the common case
            delta_ns = as_ns(delta_ns)
        self._now += delta_ns
        return self._now

    def advance_to(self, time_ns: int) -> int:
        """Advance the clock to the absolute time *time_ns* (no-op if in the past)."""
        if time_ns > self._now:
            self._now = as_ns(time_ns)
        return self._now
