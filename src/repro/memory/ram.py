"""Local RAM on the co-processor card.

The microcontroller stages function inputs here after receiving them over the
PCI and stages outputs here before returning them to the host.  The RAM is a
simple byte-addressable SRAM with a first-fit allocator so concurrent
requests (input buffer + output buffer per outstanding call) can coexist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.memory.errors import RamAllocationError
from repro.memory.timing import MemoryTiming, RAM_TIMING
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class RamAllocation:
    """A reserved span of the local RAM."""

    label: str
    address: int
    length: int

    @property
    def end(self) -> int:
        return self.address + self.length


class LocalRam:
    """Byte-addressable SRAM with a first-fit allocator and timed access."""

    def __init__(
        self,
        capacity_bytes: int,
        clock: Optional[Clock] = None,
        timing: MemoryTiming = RAM_TIMING,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.clock = clock if clock is not None else Clock()
        self.timing = timing
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._data = bytearray(capacity_bytes)
        self._allocations: Dict[str, RamAllocation] = {}
        self.total_reads = 0
        self.total_writes = 0
        self.total_bytes_moved = 0
        self.peak_bytes_allocated = 0

    # ------------------------------------------------------------ allocator
    @property
    def allocations(self) -> Dict[str, RamAllocation]:
        return dict(self._allocations)

    @property
    def bytes_allocated(self) -> int:
        return sum(allocation.length for allocation in self._allocations.values())

    @property
    def bytes_free(self) -> int:
        return self.capacity_bytes - self.bytes_allocated

    def allocate(self, label: str, length: int) -> RamAllocation:
        """Reserve *length* bytes under *label* (first fit).

        Raises :class:`RamAllocationError` when no gap is large enough or the
        label is already in use.
        """
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if label in self._allocations:
            raise RamAllocationError(f"allocation label {label!r} already in use")
        taken = sorted(self._allocations.values(), key=lambda a: a.address)
        cursor = 0
        for allocation in taken:
            if allocation.address - cursor >= length:
                break
            cursor = max(cursor, allocation.end)
        if cursor + length > self.capacity_bytes:
            raise RamAllocationError(
                f"local RAM cannot allocate {length} bytes for {label!r}: "
                f"{self.bytes_free} bytes free but fragmented or insufficient"
            )
        allocation = RamAllocation(label=label, address=cursor, length=length)
        self._allocations[label] = allocation
        self.peak_bytes_allocated = max(self.peak_bytes_allocated, self.bytes_allocated)
        return allocation

    def free(self, label: str) -> None:
        """Release the allocation identified by *label*."""
        try:
            del self._allocations[label]
        except KeyError:
            raise RamAllocationError(f"no allocation labelled {label!r}") from None

    # ----------------------------------------------------------------- I/O
    def write(self, allocation: RamAllocation, data: bytes, offset: int = 0) -> float:
        """Timed write of *data* into *allocation* at *offset*; returns the time."""
        if offset < 0 or offset + len(data) > allocation.length:
            raise ValueError(
                f"write of {len(data)} bytes at offset {offset} exceeds allocation "
                f"{allocation.label!r} ({allocation.length} bytes)"
            )
        started = self.clock.now
        elapsed = self.timing.transfer_time_ns(len(data))
        self.clock.advance(elapsed)
        address = allocation.address + offset
        self._data[address : address + len(data)] = data
        self.total_writes += 1
        self.total_bytes_moved += len(data)
        self.trace.record("ram", "write", started, self.clock.now, label=allocation.label, length=len(data))
        return elapsed

    def read(self, allocation: RamAllocation, length: Optional[int] = None, offset: int = 0) -> bytes:
        """Timed read from *allocation*; returns the bytes."""
        length = allocation.length - offset if length is None else length
        if offset < 0 or length < 0 or offset + length > allocation.length:
            raise ValueError(
                f"read of {length} bytes at offset {offset} exceeds allocation "
                f"{allocation.label!r} ({allocation.length} bytes)"
            )
        started = self.clock.now
        elapsed = self.timing.transfer_time_ns(length)
        self.clock.advance(elapsed)
        address = allocation.address + offset
        self.total_reads += 1
        self.total_bytes_moved += length
        self.trace.record("ram", "read", started, self.clock.now, label=allocation.label, length=length)
        return bytes(self._data[address : address + length])

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        parts = [
            f"{allocation.label}@{allocation.address}+{allocation.length}"
            for allocation in sorted(self._allocations.values(), key=lambda a: a.address)
        ]
        return f"LocalRam({self.bytes_allocated}/{self.capacity_bytes} bytes: {', '.join(parts) or 'empty'})"
