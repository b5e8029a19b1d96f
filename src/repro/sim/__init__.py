"""Discrete-event simulation kernel used by the co-processor model.

The kernel is intentionally small: a time base (:class:`~repro.sim.clock.Clock`),
a simulator that keeps a heap, a deque and a counter of ``(time, seq, fn, a,
b)`` entries and steps generators from one ``Timeout`` to the next
(:class:`~repro.sim.kernel.Simulator`) and a trace recorder
(:class:`~repro.sim.trace.TraceRecorder`).  The co-processor's
transaction-level components advance the shared clock directly;
the simulator is used whenever several activities (host requests, DMA,
reconfiguration) need to be interleaved.
"""

from repro.sim.clock import Clock
from repro.sim.kernel import Simulator, Timeout
from repro.sim.trace import TraceEvent, TraceRecorder
from repro.sim.rand import SeededRandom

__all__ = [
    "Clock",
    "Simulator",
    "Timeout",
    "TraceRecorder",
    "TraceEvent",
    "SeededRandom",
]
