"""Fault process descriptions.

A :class:`FaultSpec` is the experiment-facing knob set: which upset process
runs, how often, and which whole-card kills accompany it.  The spec is pure
data (mirroring :class:`~repro.core.config.CoprocessorConfig`); the
:class:`~repro.faults.injector.FaultInjector` turns it into deterministic
event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The pluggable upset processes.
#:
#: * ``poisson``  — exponential event gaps, each event flipping one uniformly
#:   chosen bit anywhere in configuration memory (the classic per-frame-bit
#:   SEU model: every bit is an equally likely target).
#: * ``targeted`` — events aim only at *configured* frames (live function
#:   regions), the worst case for the hazard window; falls back to the
#:   uniform model when nothing is loaded.
FAULT_PROCESSES = ("poisson", "targeted")


@dataclass(frozen=True)
class FaultSpec:
    """All tunable parameters of one fault environment.

    Kill times are whole nanoseconds; a fractional value is tolerated and
    rounded once, where the injector consumes the spec.
    """

    # --- configuration-memory upsets ---------------------------------------
    process: str = "poisson"
    #: Mean upset events per second of *simulated* time, per card.
    upset_rate_per_s: float = 0.0

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
        if self.upset_rate_per_s < 0:
            raise ValueError("fault rates cannot be negative")
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
