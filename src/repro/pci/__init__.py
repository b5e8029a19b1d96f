"""The PCI bus between the host and the card: its timing and its trace.

The host operates the card "by issuing instructions to the microcontroller
through the PCI".  The bus carries one card, whose 32-bit registers sit at
:data:`REGISTERS` (BAR0) and whose 128 KiB data window sits at :data:`WINDOW`
(BAR1), where the host's enumeration put them.  Nothing routes: a
transaction is what it costs and what it leaves behind — arbitration +
address phase + wait states + data phases + turnaround at the configured
bus clock and width, the three counters and one ``pci`` trace event.  A DMA
job adds a descriptor fetch and doorbell and moves in bursts.  (The
host↔card transfer time is one of the terms the offload speedup in E5
depends on.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder

#: Bus addresses of the card's register file (BAR0, 4 KiB) and data window
#: (BAR1, 128 KiB, aligned to its size after BAR0).
REGISTERS = 0xF000_0000
WINDOW = 0xF002_0000
#: The two transaction kinds the host issues (the ``pci`` events' actions).
READ = "memory-read"
WRITE = "memory-write"
#: Descriptor fetch and doorbell time charged once per DMA job.
DMA_SETUP_NS = 500
#: The card's bus: 33 MHz, 32 bits wide.
PCI_CLOCK_HZ = 33e6
PCI_BUS_WIDTH_BYTES = 4


@dataclass(frozen=True)
class PciBusTiming:
    """Cycle costs of a transaction on the bus."""

    clock_hz: float = PCI_CLOCK_HZ
    bus_width_bytes: int = PCI_BUS_WIDTH_BYTES
    arbitration_cycles: int = 2
    address_phase_cycles: int = 1
    turnaround_cycles: int = 2
    wait_states_per_burst: int = 3

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("bus clock must be positive")
        if self.bus_width_bytes <= 0:
            raise ValueError("bus width must be positive")

    def cycles_for(self, length_bytes: int) -> int:
        """Total bus cycles for one burst transaction of *length_bytes*."""
        data_phases = -(-length_bytes // self.bus_width_bytes) if length_bytes else 0
        return (
            self.arbitration_cycles
            + self.address_phase_cycles
            + self.wait_states_per_burst
            + data_phases
            + self.turnaround_cycles
        )

    def time_ns(self, length_bytes: int) -> int:
        return round(self.cycles_for(length_bytes) * 1e9 / self.clock_hz)


class PciBus:
    """Charges transactions to the shared clock; counts and traces them."""

    def __init__(self, clock: Clock, timing: PciBusTiming, trace: TraceRecorder) -> None:
        self.clock = clock
        self.timing = timing
        self.trace = trace
        self.transactions_completed = 0
        self.bytes_transferred = 0
        self.busy_time_ns = 0

    def transfer(self, action: str, address: int, length: int, deliver=None, *args):
        """One transaction of *length* bytes at *address*; returns what
        ``deliver(*args)`` returns.

        *deliver* is the card acting on the write (the COMMAND register): it
        runs once the data phases are charged, and the transaction's event
        ends when it returns, so the event spans the card's work and is
        recorded after the card's own events.
        """
        clock = self.clock
        started = clock.now
        elapsed = self.timing.time_ns(length)
        clock.advance(elapsed)
        delivered = deliver(*args) if deliver is not None else None
        self.transactions_completed += 1
        self.bytes_transferred += length
        self.busy_time_ns += elapsed
        self.trace.record("pci", action, started, clock.now, address=address, length=length)
        return delivered

    def dma(self, action: str, address: int, length: int, burst_bytes: int) -> None:
        """One DMA job: the descriptor fetch and doorbell, then *length* bytes
        in transactions of at most *burst_bytes*."""
        self.clock.advance(DMA_SETUP_NS)
        for offset in range(0, length, burst_bytes):
            self.transfer(action, address + offset, min(burst_bytes, length - offset))


__all__ = [
    "DMA_SETUP_NS", "PCI_BUS_WIDTH_BYTES", "PCI_CLOCK_HZ", "READ", "REGISTERS", "WINDOW", "WRITE",
    "PciBus", "PciBusTiming",
]
