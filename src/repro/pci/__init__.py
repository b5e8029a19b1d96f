"""The PCI bus between the host and the card: its timing and its trace.

The host operates the card "by issuing instructions to the microcontroller
through the PCI".  The bus carries one card, whose 32-bit registers sit at
:data:`REGISTERS` (BAR0) and whose 128 KiB data window sits at :data:`WINDOW`
(BAR1), where the host's enumeration put them.  Nothing routes: a
transaction is what it costs and what it leaves behind — arbitration +
address phase + wait states + data phases + turnaround at the bus's
clock and width, the three counters and one ``pci`` trace event.  A DMA
job adds a descriptor fetch and doorbell and moves in bursts.  (The
host↔card transfer time is one of the terms the offload speedup in E5
depends on.)
"""

from __future__ import annotations

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
#: Cycles every transaction spends besides its data phases: 2 arbitration,
#: 1 address phase, 3 wait states and 2 turnaround.
TRANSACTION_OVERHEAD_CYCLES = 8


def transaction_ns(length: int) -> int:
    """Time of one burst transaction of *length* bytes: arbitration, address
    phase, wait states and turnaround, plus one data phase per bus word."""
    cycles = TRANSACTION_OVERHEAD_CYCLES + -(-length // PCI_BUS_WIDTH_BYTES)
    return round(cycles * 1e9 / PCI_CLOCK_HZ)


class PciBus:
    """Charges transactions to the shared clock; counts and traces them."""

    def __init__(self, clock: Clock, trace: TraceRecorder) -> None:
        self.clock = clock
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
        elapsed = transaction_ns(length)
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
    "DMA_SETUP_NS", "PCI_BUS_WIDTH_BYTES", "PCI_CLOCK_HZ", "READ", "REGISTERS",
    "TRANSACTION_OVERHEAD_CYCLES", "WINDOW", "WRITE", "PciBus", "transaction_ns",
]
