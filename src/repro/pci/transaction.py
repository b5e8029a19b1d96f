"""PCI transactions."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TransactionKind(enum.Enum):
    """The transaction types the host driver and DMA engine issue."""

    MEMORY_READ = "memory-read"
    MEMORY_WRITE = "memory-write"
    CONFIG_READ = "config-read"
    CONFIG_WRITE = "config-write"


@dataclass
class PciTransaction:
    """One bus transaction: an address, a direction and a payload.

    For reads the payload carries the returned data once the transaction
    completes; ``latency_ns`` is filled in by the bus.
    """

    kind: TransactionKind
    address: int
    length: int
    payload: bytes = b""
    completed: bool = False
    latency_ns: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("transaction address cannot be negative")
        if self.length < 0:
            raise ValueError("transaction length cannot be negative")
        if self.kind in (TransactionKind.MEMORY_WRITE, TransactionKind.CONFIG_WRITE):
            if len(self.payload) != self.length:
                raise ValueError(
                    f"write transaction declares {self.length} bytes but carries "
                    f"{len(self.payload)}"
                )

    @property
    def is_write(self) -> bool:
        return self.kind in (TransactionKind.MEMORY_WRITE, TransactionKind.CONFIG_WRITE)

    @property
    def is_read(self) -> bool:
        return not self.is_write
