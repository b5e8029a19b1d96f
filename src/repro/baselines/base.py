"""Shared result type for baseline engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class BaselineResult:
    """Result shape shared by the baselines (duck-compatible with
    :class:`~repro.core.coprocessor.ExecutionResult` for the trace runner)."""

    function: str
    output: bytes
    latency_ns: int
    hit: bool = True
    offloaded: bool = False
    breakdown: Dict[str, float] = field(default_factory=dict)
