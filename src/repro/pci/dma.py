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


class DmaEngine:
    """Splits DMA jobs into burst transactions on the PCI bus."""

    def __init__(self, bus: PciBus, max_burst_bytes: int = 256) -> None:
        if max_burst_bytes <= 0:
            raise ValueError("maximum burst size must be positive")
        self.bus = bus
        self.max_burst_bytes = max_burst_bytes

    def transfer(self, descriptor: DmaDescriptor) -> bytes:
        """Run one DMA job to completion; returns the data read (``b""`` for
        a host->card job)."""
        # Descriptor fetch / doorbell overhead.
        self.bus.clock.advance(SETUP_TIME_NS)
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
            offset += burst
        return bytes(collected)
