"""Local RAM on the co-processor card.

The microcontroller stages a function's input here after receiving it over
the PCI, and its output before returning it to the host.  A card serves one
command at a time, so the RAM only ever holds that command's input buffer and
its output buffer beside it, and each read returns the bytes just written:
the model is the check that the two buffers fit and the time one access
takes — no addresses, no allocator, no byte image.  The microcontroller
records the ``ram`` trace events at the instants its running sum reaches.
"""

from __future__ import annotations

from repro.memory.errors import RamCapacityError
from repro.memory.timing import RAM_TIMING


class LocalRam:
    """The card's SRAM: its capacity and the time of one access."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity_bytes = capacity_bytes

    def access_ns(self, length: int, beside: int = 0) -> int:
        """Whole nanoseconds of one access to a *length*-byte buffer held
        beside *beside* bytes; a buffer takes at least one byte.

        Raises :class:`RamCapacityError` when the two do not fit.
        """
        if max(1, length) + beside > self.capacity_bytes:
            raise RamCapacityError(
                f"local RAM cannot hold {length} bytes beside {beside}: "
                f"its capacity is {self.capacity_bytes} bytes"
            )
        return RAM_TIMING.transfer_time_ns(length)
