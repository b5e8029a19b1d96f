"""Shared result type for baseline engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BaselineResult:
    """Result shape shared by the baselines (duck-compatible with
    :class:`~repro.core.coprocessor.ExecutionResult` for the trace runner)."""

    output: bytes
    latency_ns: int
    hit: bool = True
