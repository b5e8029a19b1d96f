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

    # Written out, not generated: to a profiler every dataclass ``__init__``
    # is ``<string>:2:__init__``, ``pstats`` keeps one of the colliding rows —
    # whichever code object has the highest address — and this one, the most
    # called of them, moved ``pci.calls_per_op`` between two identical runs.
    def __init__(
        self,
        kind: TransactionKind,
        address: int,
        length: int,
        payload: bytes = b"",
        completed: bool = False,
        latency_ns: int = 0,
    ) -> None:
        if address < 0:
            raise ValueError("transaction address cannot be negative")
        if length < 0:
            raise ValueError("transaction length cannot be negative")
        if kind in (TransactionKind.MEMORY_WRITE, TransactionKind.CONFIG_WRITE):
            if len(payload) != length:
                raise ValueError(
                    f"write transaction declares {length} bytes but carries "
                    f"{len(payload)}"
                )
        self.kind = kind
        self.address = address
        self.length = length
        self.payload = payload
        self.completed = completed
        self.latency_ns = latency_ns

    @property
    def is_write(self) -> bool:
        return self.kind in (TransactionKind.MEMORY_WRITE, TransactionKind.CONFIG_WRITE)
