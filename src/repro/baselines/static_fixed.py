"""Static fixed-function baseline.

The traditional co-processor the paper's introduction contrasts with: a fixed
set of functions is chosen at design time (whatever fits the fabric), loaded
once, and never changed.  Requests for resident functions are fast; requests
for anything else fall back to host software.  The agility experiments show
where this design wins (stable workloads) and where it collapses (changing
algorithm mixes).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.base import BaselineResult
from repro.baselines.host_only import HostOnlyEngine
from repro.core.config import CoprocessorConfig
from repro.core.coprocessor import AgileCoprocessor
from repro.functions.bank import FunctionBank


class StaticFixedEngine:
    """A co-processor whose resident function set never changes."""

    def __init__(
        self,
        config: CoprocessorConfig,
        bank: FunctionBank,
        resident_functions: Optional[Sequence[str]] = None,
    ) -> None:
        self.coprocessor = AgileCoprocessor(config, bank)
        self.bank = bank
        self.fallback = HostOnlyEngine(
            bank, software_slowdown=config.software_slowdown, clock=self.coprocessor.clock
        )
        self.coprocessor.download_bank()
        self.resident: List[str] = []
        self._load_static_set(resident_functions)

    # ----------------------------------------------------------- residency
    def _load_static_set(self, requested: Optional[Sequence[str]]) -> None:
        """Preload the requested functions (or greedily as many as fit)."""
        geometry = self.coprocessor.geometry
        candidates = list(requested) if requested is not None else self.bank.names()
        free = geometry.frame_count
        for name in candidates:
            function = self.bank.by_name(name)
            frames = function.frames_required(geometry)
            if frames > free:
                if requested is not None:
                    raise ValueError(
                        f"static set does not fit: {name!r} needs {frames} frames, "
                        f"{free} remain"
                    )
                continue
            self.coprocessor.preload(name)
            self.resident.append(name)
            free -= frames

    @property
    def clock(self):
        return self.coprocessor.clock

    # ---------------------------------------------------------------- API
    def execute(self, name: str, data: bytes, future_requests: Optional[Sequence[str]] = None) -> BaselineResult:
        """Execute on the fabric when resident, otherwise in host software."""
        if name in self.resident:
            result = self.coprocessor.execute(name, data)
            return BaselineResult(
                output=result.output,
                latency_ns=result.latency_ns,
                hit=True,
            )
        return self.fallback.execute(name, data)
