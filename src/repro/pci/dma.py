"""Bus-master DMA engine.

Large input/output buffers move between host memory and the card's data
window by DMA rather than programmed I/O: the driver posts a descriptor, the
engine splits it into maximum-burst transactions and streams them across the
bus.  The crossover between programmed I/O and DMA shows up in the offload
speedup experiment (E5) at small input sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pci.bus import PciBus
from repro.pci.transaction import PciTransaction, TransactionKind

#: Descriptor fetch and doorbell time charged once per DMA job.
SETUP_TIME_NS = 500


@dataclass
class DmaDescriptor:
    """One DMA job: host buffer <-> card window."""

    card_address: int
    length: int
    to_card: bool
    host_buffer: bytes = b""

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("DMA length cannot be negative")
        if self.to_card and len(self.host_buffer) != self.length:
            raise ValueError("host buffer length must match the descriptor length")


@dataclass
class DmaCompletion:
    """Result of one DMA job."""

    descriptor: DmaDescriptor
    data: bytes
    transactions: int
    elapsed_ns: int


class DmaEngine:
    """Splits DMA jobs into burst transactions on the PCI bus."""

    def __init__(self, bus: PciBus, max_burst_bytes: int = 256) -> None:
        if max_burst_bytes <= 0:
            raise ValueError("maximum burst size must be positive")
        self.bus = bus
        self.max_burst_bytes = max_burst_bytes
        self.jobs_completed = 0
        self.bytes_moved = 0

    def transfer(self, descriptor: DmaDescriptor) -> DmaCompletion:
        """Run one DMA job to completion; returns data read (card->host jobs)."""
        started = self.bus.clock.now
        # Descriptor fetch / doorbell overhead.
        self.bus.clock.advance(SETUP_TIME_NS)
        transactions = 0
        collected = bytearray()
        offset = 0
        while offset < descriptor.length:
            burst = min(self.max_burst_bytes, descriptor.length - offset)
            address = descriptor.card_address + offset
            if descriptor.to_card:
                chunk = descriptor.host_buffer[offset : offset + burst]
                self.bus.submit(
                    PciTransaction(TransactionKind.MEMORY_WRITE, address, burst, chunk)
                )
            else:
                transaction = self.bus.submit(
                    PciTransaction(TransactionKind.MEMORY_READ, address, burst)
                )
                collected.extend(transaction.payload)
            transactions += 1
            offset += burst
        self.jobs_completed += 1
        self.bytes_moved += descriptor.length
        return DmaCompletion(
            descriptor=descriptor,
            data=bytes(collected),
            transactions=transactions,
            elapsed_ns=self.bus.clock.now - started,
        )
