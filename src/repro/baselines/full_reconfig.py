"""Full-reconfiguration baseline.

An FPGA co-processor *without* partial reconfiguration: only one algorithm is
resident at a time and switching algorithms rewrites the whole device (every
frame, not just the incoming function's frames).  This is the architecture
the paper's partial-reconfiguration design improves on, and experiment E6
quantifies the gap as a function of how often the workload switches
algorithms.
"""

from __future__ import annotations

from repro.baselines.base import BaselineResult
from repro.core.config import CoprocessorConfig
from repro.core.coprocessor import AgileCoprocessor
from repro.functions.bank import FunctionBank


class FullReconfigEngine:
    """Wraps an agile co-processor but forces whole-device reconfiguration."""

    def __init__(self, config: CoprocessorConfig, bank: FunctionBank) -> None:
        # The underlying card is identical; only the loading discipline changes.
        self.coprocessor = AgileCoprocessor(config, bank)
        self.bank = bank
        # frame count -> penalty; the port timing parameters never change
        # after construction, so the per-switch penalty is a pure function of
        # the incoming function's frame footprint.
        self._penalty_cache: dict = {}

    # ------------------------------------------------------------ plumbing
    @property
    def clock(self):
        return self.coprocessor.clock

    def _full_device_penalty_ns(self, function_frames: int) -> int:
        """Extra configuration-port time to rewrite the rest of the device.

        The partial path already wrote ``function_frames`` frames; a full
        reconfiguration additionally rewrites every other frame (with blank
        configuration data), through the same port.
        """
        penalty = self._penalty_cache.get(function_frames)
        if penalty is None:
            geometry = self.coprocessor.geometry
            port = self.coprocessor.device.port
            remaining = geometry.frame_count - function_frames
            penalty = remaining * port.write_time_ns(geometry.frame_config_bytes)
            self._penalty_cache[function_frames] = penalty
        return penalty

    # ---------------------------------------------------------------- API
    def execute(self, name: str, data: bytes) -> BaselineResult:
        """Execute *name*, evicting everything else and paying full-device cost."""
        copro = self.coprocessor
        if not copro.bank_downloaded:
            copro.download_bank()
        hit = copro.is_loaded(name)
        if not hit:
            # Without partial reconfiguration nothing survives the switch.
            for loaded in copro.loaded_functions():
                copro.evict(loaded)
        result = copro.execute(name, data)
        extra = 0
        if not hit:
            frames = copro.bank.by_name(name).frames_required(copro.geometry)
            extra = self._full_device_penalty_ns(frames)
            copro.clock.advance(extra)
        return BaselineResult(
            output=result.output,
            latency_ns=result.latency_ns + extra,
            hit=hit,
        )
