"""Latency / bandwidth models for the on-card memories.

The timing model is deliberately simple and explicit: an access costs a fixed
setup latency plus the transfer time of the burst at the memory's bandwidth.
Both the ROM (flash-like, slow) and the local RAM (SRAM-like, fast) use the
same model with different parameters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryTiming:
    """Access timing of a memory device.

    Parameters
    ----------
    access_latency_ns:
        Fixed cost of starting a read or write burst.
    bandwidth_bytes_per_ns:
        Sustained transfer rate once the burst is running
        (1.0 = 1 GB/s, 0.05 = 50 MB/s).
    """

    access_latency_ns: int = 50
    bandwidth_bytes_per_ns: float = 0.05

    def __post_init__(self) -> None:
        if self.access_latency_ns < 0:
            raise ValueError("access latency cannot be negative")
        if self.bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time_ns(self, num_bytes: int) -> int:
        """Whole nanoseconds to read or write *num_bytes* in one burst."""
        if num_bytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        if num_bytes == 0:
            return 0
        return round(self.access_latency_ns + num_bytes / self.bandwidth_bytes_per_ns)

    def bandwidth_mbytes_per_s(self) -> float:
        """Convenience conversion used in reports."""
        return self.bandwidth_bytes_per_ns * 1e3


#: Flash-style configuration ROM: 100 ns setup, ~50 MB/s sustained.
ROM_TIMING = MemoryTiming(access_latency_ns=100, bandwidth_bytes_per_ns=0.05)

#: On-card SRAM: 20 ns setup, ~400 MB/s sustained.
RAM_TIMING = MemoryTiming(access_latency_ns=20, bandwidth_bytes_per_ns=0.4)
