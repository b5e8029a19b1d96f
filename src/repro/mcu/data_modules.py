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

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.ram import LocalRam, RamAllocation
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder

#: Bus cycles every transfer pays before its first beat.
SETUP_CYCLES = 4


@dataclass
class TransferRecord:
    """Accounting for one transfer through a data module."""

    direction: str
    payload_bytes: int
    padded_bytes: int
    beats: int
    elapsed_ns: int


class _InterfaceBus:
    """Shared timing logic for both data modules."""

    def __init__(
        self,
        clock: Clock,
        bus_width_bytes: int = 4,
        bus_clock_hz: float = 66e6,
    ) -> None:
        if bus_width_bytes <= 0:
            raise ValueError("interface bus width must be positive")
        self.clock = clock
        self.bus_width_bytes = bus_width_bytes
        self.domain = ClockDomain("interface-bus", bus_clock_hz)

    def padded_length(self, payload_bytes: int) -> int:
        """Round *payload_bytes* up to a whole number of bus beats."""
        if payload_bytes == 0:
            return 0
        beats = -(-payload_bytes // self.bus_width_bytes)
        return beats * self.bus_width_bytes

    def transfer_time_ns(self, payload_bytes: int) -> Tuple[int, int]:
        """(beats, nanoseconds) for a transfer of *payload_bytes*."""
        beats = -(-payload_bytes // self.bus_width_bytes) if payload_bytes else 0
        cycles = SETUP_CYCLES + beats
        return beats, self.domain.cycles_to_ns(cycles)


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
        self.bus = _InterfaceBus(clock, bus_width_bytes, bus_clock_hz)
        self.clock = clock
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.transfers = 0
        self.bytes_transferred = 0

    def feed(self, allocation: RamAllocation, length: int) -> Tuple[bytes, TransferRecord]:
        """Read *length* bytes from RAM and stream them to the fabric.

        Returns the payload (exactly *length* bytes) and the transfer record
        (whose timing reflects the padded, bus-width-aligned length).
        """
        started = self.clock.now
        payload = self.ram.read(allocation, length)
        beats, bus_time = self.bus.transfer_time_ns(length)
        self.clock.advance(bus_time)
        record = TransferRecord(
            direction="input",
            payload_bytes=length,
            padded_bytes=self.bus.padded_length(length),
            beats=beats,
            elapsed_ns=self.clock.now - started,
        )
        self.transfers += 1
        self.bytes_transferred += length
        self.trace.record("data-in", "feed", started, self.clock.now, bytes=length)
        return payload, record


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
        self.bus = _InterfaceBus(clock, bus_width_bytes, bus_clock_hz)
        self.clock = clock
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.transfers = 0
        self.bytes_transferred = 0

    def collect(self, allocation: RamAllocation, payload: bytes) -> TransferRecord:
        """Stream *payload* from the fabric and store it into RAM."""
        started = self.clock.now
        beats, bus_time = self.bus.transfer_time_ns(len(payload))
        self.clock.advance(bus_time)
        self.ram.write(allocation, payload)
        record = TransferRecord(
            direction="output",
            payload_bytes=len(payload),
            padded_bytes=self.bus.padded_length(len(payload)),
            beats=beats,
            elapsed_ns=self.clock.now - started,
        )
        self.transfers += 1
        self.bytes_transferred += len(payload)
        self.trace.record("data-out", "collect", started, self.clock.now, bytes=len(payload))
        return record
