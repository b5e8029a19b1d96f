"""Fault process descriptions.

A :class:`FaultSpec` is the experiment-facing knob set: which upset process
runs, how often, how wide its bursts are, and what card-level faults (port
stalls, whole-card kills) accompany it.  The spec is pure data so sweeps can
vary one field at a time (mirroring :class:`~repro.core.config.
CoprocessorConfig`); the :class:`~repro.faults.injector.FaultInjector` turns
it into deterministic event streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: The pluggable upset processes.
#:
#: * ``poisson``  — exponential event gaps, each event flipping one uniformly
#:   chosen bit anywhere in configuration memory (the classic per-frame-bit
#:   SEU model: every bit is an equally likely target).
#: * ``burst``    — same arrival process, but each event flips
#:   ``burst_bits`` adjacent bits in one frame (multi-bit upsets from a
#:   single particle track).
#: * ``targeted`` — events aim only at *configured* frames (live function
#:   regions), the worst case for the hazard window; falls back to the
#:   uniform model when nothing is loaded.
FAULT_PROCESSES = ("poisson", "burst", "targeted")


@dataclass(frozen=True)
class FaultSpec:
    """All tunable parameters of one fault environment.

    Durations and kill times are whole nanoseconds; a fractional value is
    tolerated and rounded once, where the injector consumes the spec.
    """

    # --- configuration-memory upsets ---------------------------------------
    process: str = "poisson"
    #: Mean upset events per second of *simulated* time, per card.
    upset_rate_per_s: float = 0.0
    #: Bits flipped per event (only the ``burst`` process uses values > 1).
    burst_bits: int = 4

    # --- configuration-port faults ------------------------------------------
    #: Mean port-fault events per second of simulated time, fleet-wide.
    port_fault_rate_per_s: float = 0.0
    #: How long a port fault lasts (kernel time for a wedge; card-local
    #: configuration time for a stall).
    port_fault_duration_ns: int = 250_000
    #: ``"wedge"`` hard-fails the port until recovery (the card degrades and
    #: misses bounce); ``"stall"`` queues a transient delay the next
    #: configuration transfer silently absorbs (the card stays healthy, one
    #: reconfiguration just takes longer).
    port_fault_kind: str = "wedge"

    # --- whole-card failures -------------------------------------------------
    #: Scheduled kills: (kernel time ns, card index).  Deterministic by
    #: construction — reliability experiments want controlled failure points.
    card_kill_times_ns: Tuple[Tuple[int, int], ...] = ()

    # --- determinism ---------------------------------------------------------
    seed: int = 0xFA017

    def __post_init__(self) -> None:
        if self.process not in FAULT_PROCESSES:
            raise ValueError(
                f"unknown fault process {self.process!r}; choose from {FAULT_PROCESSES}"
            )
        if self.upset_rate_per_s < 0 or self.port_fault_rate_per_s < 0:
            raise ValueError("fault rates cannot be negative")
        if self.burst_bits <= 0:
            raise ValueError("a burst flips at least one bit")
        if self.port_fault_duration_ns < 0:
            raise ValueError("a port fault cannot last negative time")
        if self.port_fault_kind not in ("wedge", "stall"):
            raise ValueError(
                f"unknown port fault kind {self.port_fault_kind!r}; "
                f"choose 'wedge' or 'stall'"
            )
        for entry in self.card_kill_times_ns:
            time_ns, index = entry
            if time_ns < 0:
                raise ValueError("card kills cannot be scheduled before time zero")
            if index < 0:
                raise ValueError("card kill index cannot be negative")

    @property
    def mean_upset_gap_ns(self) -> float:
        """Mean nanoseconds between upset events (``inf`` when rate is 0)."""
        if self.upset_rate_per_s <= 0:
            return float("inf")
        return 1e9 / self.upset_rate_per_s

    @property
    def mean_port_fault_gap_ns(self) -> float:
        if self.port_fault_rate_per_s <= 0:
            return float("inf")
        return 1e9 / self.port_fault_rate_per_s

    def with_overrides(self, **overrides) -> "FaultSpec":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)
