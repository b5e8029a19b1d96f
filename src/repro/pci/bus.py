"""The PCI bus: timing and device routing.

The model is a single shared 32-bit/33 MHz bus (matching the Stratix PCI
development board used in the paper's proof of concept) with configurable
width and clock.  Each transaction costs arbitration + address phase + data
phases + turnaround; bursts move ``bus_width_bytes`` per data phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.pci.transaction import PciTransaction, TransactionKind
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


class PciBusError(Exception):
    """Raised when a transaction cannot be routed (master abort)."""


@dataclass(frozen=True)
class PciBusTiming:
    """Cycle costs of a transaction on the bus."""

    clock_hz: float = 33e6
    bus_width_bytes: int = 4
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
    """Routes transactions from the host bridge to the devices on the bus."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        timing: Optional[PciBusTiming] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.timing = timing if timing is not None else PciBusTiming()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._devices: List["PciDeviceProtocol"] = []
        self.transactions_completed = 0
        self.bytes_transferred = 0
        self.busy_time_ns = 0

    # --------------------------------------------------------------- wiring
    def attach(self, device: "PciDeviceProtocol") -> None:
        """Plug a device into the bus."""
        self._devices.append(device)

    @property
    def devices(self) -> List["PciDeviceProtocol"]:
        return list(self._devices)

    # ----------------------------------------------------------- transactions
    def submit(self, transaction: PciTransaction) -> PciTransaction:
        """Run one transaction to completion, advancing the shared clock.

        Routing happens before any time is charged: a master abort (no device
        claims the address) must not advance the clock or count as bus busy
        time, because the data phases never happen.
        """
        target = self._route(transaction)
        if target is None:
            raise PciBusError(
                f"master abort: no device claims address 0x{transaction.address:08x}"
            )
        started = self.clock.now
        elapsed = self.timing.time_ns(transaction.length)
        self.clock.advance(elapsed)
        if transaction.is_write:
            target.memory_write(transaction.address, transaction.payload)
        else:
            transaction.payload = target.memory_read(transaction.address, transaction.length)
        transaction.completed = True
        transaction.latency_ns = self.clock.now - started
        self.transactions_completed += 1
        self.bytes_transferred += transaction.length
        self.busy_time_ns += elapsed
        self.trace.record(
            "pci",
            transaction.kind.value,
            started,
            self.clock.now,
            address=transaction.address,
            length=transaction.length,
        )
        return transaction

    def _route(self, transaction: PciTransaction) -> Optional["PciDeviceProtocol"]:
        for device in self._devices:
            if device.claims(transaction.address):
                return device
        return None

    # ------------------------------------------------------------ utilities
    def write(self, address: int, payload: bytes) -> PciTransaction:
        return self.submit(
            PciTransaction(TransactionKind.MEMORY_WRITE, address, len(payload), payload)
        )

    def read(self, address: int, length: int) -> bytes:
        transaction = self.submit(
            PciTransaction(TransactionKind.MEMORY_READ, address, length)
        )
        return transaction.payload

    def utilisation(self, since_ns: int = 0) -> float:
        """Fraction of wall-clock the bus spent busy since *since_ns*."""
        window = self.clock.now - since_ns
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time_ns / window)


class PciDeviceProtocol:
    """Interface the bus expects of attached devices (duck-typed)."""

    def claims(self, address: int) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def memory_read(self, address: int, length: int) -> bytes:  # pragma: no cover
        raise NotImplementedError

    def memory_write(self, address: int, payload: bytes) -> None:  # pragma: no cover
        raise NotImplementedError
