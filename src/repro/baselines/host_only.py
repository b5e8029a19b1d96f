"""Host-only (pure software) baseline.

Runs the reference behaviour of every function on the host CPU.  The cycle
cost is the function's hardware cycle count scaled by a per-call *software
slowdown* factor (hardware exploits bit-level and pipeline parallelism the
CPU lacks) and divided by the host clock, so the comparison against the
co-processor varies realistically with input size and host speed.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import BaselineResult
from repro.functions.bank import FunctionBank
from repro.sim.clock import Clock

#: The host CPU's clock.
HOST_CLOCK_HZ = 1e9


class HostOnlyEngine:
    """Executes every request as software on the host CPU."""

    def __init__(
        self,
        bank: FunctionBank,
        software_slowdown: float = 20.0,
        clock: Optional[Clock] = None,
    ) -> None:
        if software_slowdown <= 0:
            raise ValueError("the software slowdown must be positive")
        self.bank = bank
        self.software_slowdown = software_slowdown
        self.clock = clock if clock is not None else Clock()

    def software_time_ns(self, name: str, input_length: int) -> int:
        """Modelled host CPU time for one call, in whole nanoseconds."""
        function = self.bank.by_name(name)
        cycles = function.software_cycles(input_length, self.software_slowdown)
        return round(cycles / HOST_CLOCK_HZ * 1e9)

    def execute(self, name: str, data: bytes, future_requests=None) -> BaselineResult:
        """Run *name* on *data* in software (the result is bit-exact with the
        hardware because both use the same reference behaviour)."""
        elapsed = self.software_time_ns(name, len(data))
        output = self.bank.by_name(name).behaviour(data)
        self.clock.advance(elapsed)
        return BaselineResult(
            output=output,
            latency_ns=elapsed,
            hit=True,
        )
