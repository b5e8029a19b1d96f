"""Data input module and output collection module.

"The data transfer to and from the FPGA takes place through the data
input/output modules.  Each data transfer is a multiple of the width of the
interface bus as specified by the function record present in the ROM."

Both modules move data between the local RAM and the fabric over an interface
bus of configurable width; transfers are rounded up to whole bus beats, which
is where the padding the paper mentions comes from.  The payload handed to the
function is the exact original data — only the *transfer time* reflects the
padded length.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.ram import LocalRam, RamAllocation
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder

#: Bus cycles every transfer pays before its first beat.
SETUP_CYCLES = 4


class _InterfaceBus:
    """Shared timing logic for both data modules."""

    def __init__(self, bus_width_bytes: int = 4, bus_clock_hz: float = 66e6) -> None:
        if bus_width_bytes <= 0:
            raise ValueError("interface bus width must be positive")
        self.bus_width_bytes = bus_width_bytes
        self.domain = ClockDomain("interface-bus", bus_clock_hz)

    def transfer_time_ns(self, payload_bytes: int) -> int:
        """Nanoseconds for a transfer of *payload_bytes*: setup plus whole beats."""
        beats = -(-payload_bytes // self.bus_width_bytes)
        return self.domain.cycles_to_ns(SETUP_CYCLES + beats)


class DataInputModule:
    """Moves staged input data from the local RAM to the loaded function."""

    def __init__(
        self,
        ram: LocalRam,
        clock: Clock,
        bus_width_bytes: int = 4,
        bus_clock_hz: float = 66e6,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.ram = ram
        self.bus = _InterfaceBus(bus_width_bytes, bus_clock_hz)
        self.clock = clock
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    def feed(self, allocation: RamAllocation, length: int) -> bytes:
        """Read *length* bytes from RAM and stream them to the fabric.

        Returns the payload (exactly *length* bytes); the bus time reflects
        the padded, bus-width-aligned length.
        """
        started = self.clock.now
        payload = self.ram.read(allocation, length)
        self.clock.advance(self.bus.transfer_time_ns(length))
        self.trace.record("data-in", "feed", started, self.clock.now, bytes=length)
        return payload


class OutputCollectionModule:
    """Collects results from the loaded function into the local RAM."""

    def __init__(
        self,
        ram: LocalRam,
        clock: Clock,
        bus_width_bytes: int = 4,
        bus_clock_hz: float = 66e6,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.ram = ram
        self.bus = _InterfaceBus(bus_width_bytes, bus_clock_hz)
        self.clock = clock
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    def collect(self, allocation: RamAllocation, payload: bytes) -> None:
        """Stream *payload* from the fabric and store it into RAM."""
        started = self.clock.now
        self.clock.advance(self.bus.transfer_time_ns(len(payload)))
        self.ram.write(allocation, payload)
        self.trace.record("data-out", "collect", started, self.clock.now, bytes=len(payload))
