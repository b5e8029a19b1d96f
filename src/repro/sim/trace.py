"""Structured tracing of simulation activity.

Components record :class:`TraceEvent` entries (component name, action,
attributes, time span) into a shared :class:`TraceRecorder`.  A fleet that
bridges a card's recorder turns its events into ``card.*`` spans
(:mod:`repro.obs`); the benchmark harness reads them to report where
reconfiguration time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class TraceEvent:
    """One recorded activity with a start/end time and free-form attributes.

    Times are the clock's own whole nanoseconds, stored as read.
    """

    component: str
    action: str
    start_ns: int
    end_ns: int
    attributes: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Collects trace events; can be disabled to avoid overhead in benchmarks."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Events kept before the rest are only counted in ``dropped``
        #: (``None``: no bound).
        self.capacity: Optional[int] = None
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def record(
        self,
        component: str,
        action: str,
        start_ns: int,
        end_ns: int,
        **attributes: Any,
    ) -> Optional[TraceEvent]:
        """Record an event; returns it, or ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        if end_ns < start_ns:
            raise ValueError("trace event ends before it starts")
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return None
        event = TraceEvent(component, action, start_ns, end_ns, dict(attributes))
        self.events.append(event)
        return event

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
