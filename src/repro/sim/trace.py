"""Structured tracing of simulation activity.

Components record :class:`TraceEvent` entries (component name, action,
attributes, time span) into a shared :class:`TraceRecorder`.  The analysis
package turns traces into per-phase timing breakdowns and the benchmark
harness uses them to report where reconfiguration time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.clock import Clock, format_time


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

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def describe(self) -> str:
        """Human-readable single-line description."""
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        window = f"{format_time(self.start_ns)}..{format_time(self.end_ns)}"
        suffix = f" [{attrs}]" if attrs else ""
        return f"{self.component}.{self.action} {window} ({format_time(self.duration_ns)}){suffix}"


class TraceRecorder:
    """Collects trace events; can be disabled to avoid overhead in benchmarks."""

    def __init__(self, clock: Optional[Clock] = None, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------ recording
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

    def span(self, component: str, action: str, **attributes: Any) -> "TraceSpan":
        """Context manager recording a span around clock-advancing work."""
        if self.clock is None:
            raise RuntimeError("TraceRecorder.span requires a clock")
        return TraceSpan(self, component, action, attributes)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def by_component(self, component: str) -> List[TraceEvent]:
        return [event for event in self.events if event.component == component]

    def by_action(self, action: str) -> List[TraceEvent]:
        return [event for event in self.events if event.action == action]

    def total_time(self, component: Optional[str] = None, action: Optional[str] = None) -> int:
        """Sum of durations matching the optional filters, in nanoseconds."""
        total = 0
        for event in self.events:
            if component is not None and event.component != component:
                continue
            if action is not None and event.action != action:
                continue
            total += event.duration_ns
        return total

    def breakdown(self) -> Dict[str, int]:
        """Total nanoseconds per ``component.action`` key."""
        result: Dict[str, int] = {}
        for event in self.events:
            key = f"{event.component}.{event.action}"
            result[key] = result.get(key, 0) + event.duration_ns
        return result

    def report(self, limit: Optional[int] = None) -> str:
        """Multi-line textual report of the most recent events."""
        events = self.events if limit is None else self.events[-limit:]
        lines = [event.describe() for event in events]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity={self.capacity})")
        return "\n".join(lines)


class TraceSpan:
    """Context manager that records the clock interval spent inside it."""

    def __init__(self, recorder: TraceRecorder, component: str, action: str, attributes: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.component = component
        self.action = action
        self.attributes = attributes
        self._start: Optional[int] = None

    def __enter__(self) -> "TraceSpan":
        assert self.recorder.clock is not None
        self._start = self.recorder.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.recorder.clock is not None and self._start is not None
        if exc_type is None:
            self.recorder.record(
                self.component,
                self.action,
                self._start,
                self.recorder.clock.now,
                **self.attributes,
            )

    def annotate(self, **attributes: Any) -> None:
        """Attach additional attributes before the span closes."""
        self.attributes.update(attributes)
