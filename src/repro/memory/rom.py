"""The configuration ROM.

Per the paper: "The compressed configuration bit-streams are loaded from one
end of the ROM while the record table is populated from the other end of the
ROM."  :class:`ConfigurationRom` enforces that two-ended layout, refuses
downloads that would make the two areas collide, and provides the
record-driven access path the microcontroller uses.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memory.errors import RomFullError, RomLookupError
from repro.memory.records import FunctionRecord, RecordTable
from repro.memory.timing import MemoryTiming, ROM_TIMING
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


class ConfigurationRom:
    """Byte-addressable ROM with bit-streams at the bottom, records at the top."""

    def __init__(
        self,
        capacity_bytes: int,
        clock: Optional[Clock] = None,
        timing: MemoryTiming = ROM_TIMING,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("ROM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.clock = clock if clock is not None else Clock()
        self.timing = timing
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._data = bytearray(capacity_bytes)
        self._table = RecordTable()
        self._next_bitstream_address = 0       # grows upward from address 0
        self._record_area_bottom = capacity_bytes  # grows downward from the top
        self.total_reads = 0
        self.total_bytes_read = 0

    # ------------------------------------------------------------ occupancy
    @property
    def record_table(self) -> RecordTable:
        return self._table

    @property
    def bitstream_bytes_used(self) -> int:
        """Bytes occupied by compressed bit-streams (bottom area)."""
        return self._next_bitstream_address

    @property
    def record_bytes_used(self) -> int:
        """Bytes occupied by the record table (top area)."""
        return self.capacity_bytes - self._record_area_bottom

    @property
    def free_bytes(self) -> int:
        """Gap between the two growing areas."""
        return self._record_area_bottom - self._next_bitstream_address

    @property
    def utilisation(self) -> float:
        return 1.0 - self.free_bytes / self.capacity_bytes

    # ------------------------------------------------------------- download
    def download(
        self,
        function_id: int,
        name: str,
        compressed_image: bytes,
        uncompressed_size: int,
        input_bytes: int,
        output_bytes: int,
        frame_count: int,
        codec_name: str,
    ) -> FunctionRecord:
        """Store a compressed bit-stream and append its record.

        This is the operation the host performs when it downloads the
        function bank onto the card.  Raises :class:`RomFullError` when the
        bit-stream area and the record table would collide.
        """
        record_size = FunctionRecord.packed_size()
        needed = len(compressed_image) + record_size
        if needed > self.free_bytes:
            raise RomFullError(
                f"ROM cannot hold {name!r}: needs {needed} bytes "
                f"({len(compressed_image)} image + {record_size} record) "
                f"but only {self.free_bytes} bytes remain"
            )
        start = self._next_bitstream_address
        self._data[start : start + len(compressed_image)] = compressed_image
        self._next_bitstream_address += len(compressed_image)

        record = FunctionRecord(
            function_id=function_id,
            name=name,
            start_address=start,
            compressed_size=len(compressed_image),
            uncompressed_size=uncompressed_size,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            frame_count=frame_count,
            codec_name=codec_name,
        )
        self._record_area_bottom -= record_size
        self._data[self._record_area_bottom : self._record_area_bottom + record_size] = record.pack()
        self._table.add(record)
        return record

    # ----------------------------------------------------------------- read
    def read(self, address: int, length: int) -> bytes:
        """Timed read of *length* bytes starting at *address*."""
        if address < 0 or address + length > self.capacity_bytes:
            raise ValueError(
                f"ROM read of {length} bytes at {address} exceeds capacity {self.capacity_bytes}"
            )
        started = self.clock.now
        self.clock.advance(self.timing.transfer_time_ns(length))
        self.total_reads += 1
        self.total_bytes_read += length
        self.trace.record("rom", "read", started, self.clock.now, address=address, length=length)
        return bytes(self._data[address : address + length])

    def record_for(self, name: str) -> FunctionRecord:
        """Look up the record for *name* (raises :class:`RomLookupError`)."""
        try:
            return self._table.by_name(name)
        except KeyError:
            raise RomLookupError(name) from None

    def read_bitstream(self, name: str, chunk_bytes: Optional[int] = None):
        """Yield the compressed bit-stream of *name* in timed chunks.

        The configuration module consumes the image chunk by chunk; reading
        the whole image in one burst is modelled by passing ``chunk_bytes=None``.
        """
        record = self.record_for(name)
        if chunk_bytes is None:
            yield self.read(record.start_address, record.compressed_size)
            return
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        offset = record.start_address
        end = record.end_address
        while offset < end:
            length = min(chunk_bytes, end - offset)
            yield self.read(offset, length)
            offset += length

    # ------------------------------------------------------------ reporting
    def layout_summary(self) -> Dict[str, int]:
        """Occupancy summary used by the E7 experiment."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "bitstream_bytes": self.bitstream_bytes_used,
            "record_bytes": self.record_bytes_used,
            "free_bytes": self.free_bytes,
            "functions": len(self._table),
        }
