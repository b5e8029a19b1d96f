"""Host-only (pure software) baseline.

Runs the reference behaviour of every function on the host CPU.  The cycle
cost is the function's hardware cycle count scaled by the *software
slowdown* (hardware exploits bit-level and pipeline parallelism the CPU
lacks) and divided by the host clock, so the comparison against the
co-processor varies realistically with input size.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import BaselineResult
from repro.functions.bank import FunctionBank
from repro.sim.clock import Clock

#: The host CPU's clock.
HOST_CLOCK_HZ = 1e9
#: Host-CPU cycles per hardware cycle.  With the 1 GHz host and the 100 MHz
#: fabric this makes software roughly 4x slower per byte than the hardware
#: datapath, which matches published software-vs-FPGA crypto comparisons of
#: the paper's era (e.g. ~25-30 cycles/byte software AES vs a few cycles/byte
#: for a compact core).
SOFTWARE_SLOWDOWN = 40.0


class HostOnlyEngine:
    """Executes every request as software on the host CPU."""

    def __init__(self, bank: FunctionBank, clock: Optional[Clock] = None) -> None:
        self.bank = bank
        self.clock = clock if clock is not None else Clock()

    def software_time_ns(self, name: str, input_length: int) -> int:
        """Modelled host CPU time for one call, in whole nanoseconds."""
        function = self.bank.by_name(name)
        cycles = function.software_cycles(input_length, SOFTWARE_SLOWDOWN)
        return round(cycles / HOST_CLOCK_HZ * 1e9)

    def execute(self, name: str, data: bytes) -> BaselineResult:
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
