"""Memory subsystem: the ROM holding compressed bit-streams + record table,
and the local RAM the microcontroller stages function inputs/outputs in —
modelled as its capacity and its access time, since a card serves one command
at a time and the RAM holds only that command's two buffers.

The ROM layout follows the paper exactly: compressed configuration
bit-streams are loaded from one end while the record table (start address,
size and I/O sizes of every function) is populated from the other end, and
the microcontroller uses the records to find the bit-streams.
"""

from repro.memory.errors import MemoryError_, RamCapacityError, RomFullError, RomLookupError
from repro.memory.records import FunctionRecord, RecordTable
from repro.memory.rom import ConfigurationRom
from repro.memory.ram import LocalRam
from repro.memory.timing import MemoryTiming

__all__ = [
    "MemoryError_",
    "RamCapacityError",
    "RomFullError",
    "RomLookupError",
    "FunctionRecord",
    "RecordTable",
    "ConfigurationRom",
    "LocalRam",
    "MemoryTiming",
]
