"""Function records and the ROM record table.

Each record holds, per the paper: the start address of the function's
compressed configuration bit-stream in the ROM, its (compressed) size, and the
input/output sizes of the function.  We additionally store the uncompressed
size, frame count and codec name — information a real implementation would
need as well and which the paper folds into "its size and the input/output
size of the functions".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

_RECORD_STRUCT = struct.Struct(">I16sIIIIHH12s")


@dataclass(frozen=True)
class FunctionRecord:
    """One entry of the ROM record table."""

    function_id: int
    name: str
    start_address: int
    compressed_size: int
    uncompressed_size: int
    input_bytes: int
    output_bytes: int
    frame_count: int
    codec_name: str

    def __post_init__(self) -> None:
        if self.start_address < 0 or self.compressed_size < 0:
            raise ValueError("record addresses and sizes must be non-negative")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("record I/O sizes must be non-negative")
        if self.frame_count <= 0:
            raise ValueError("a function occupies at least one frame")
        if len(self.name.encode("ascii", errors="replace")) > 16:
            raise ValueError("record names are limited to 16 ASCII bytes")
        if len(self.codec_name.encode("ascii", errors="replace")) > 12:
            raise ValueError("codec names are limited to 12 ASCII bytes")

    # -------------------------------------------------------------- packing
    @staticmethod
    def packed_size() -> int:
        """Bytes one packed record occupies in the ROM."""
        return _RECORD_STRUCT.size

    def pack(self) -> bytes:
        name_bytes = self.name.encode("ascii", errors="replace")[:16].ljust(16, b"\x00")
        codec_bytes = self.codec_name.encode("ascii", errors="replace")[:12].ljust(12, b"\x00")
        return _RECORD_STRUCT.pack(
            self.function_id,
            name_bytes,
            self.start_address,
            self.compressed_size,
            self.uncompressed_size,
            self.input_bytes,
            self.output_bytes,
            self.frame_count,
            codec_bytes,
        )


class RecordTable:
    """Ordered collection of function records with name / id lookup."""

    def __init__(self) -> None:
        self._records: List[FunctionRecord] = []
        self._by_name: Dict[str, FunctionRecord] = {}
        self._by_id: Dict[int, FunctionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: FunctionRecord) -> None:
        if record.name in self._by_name:
            raise ValueError(f"a record named {record.name!r} already exists")
        if record.function_id in self._by_id:
            raise ValueError(f"a record with id {record.function_id} already exists")
        self._records.append(record)
        self._by_name[record.name] = record
        self._by_id[record.function_id] = record

    def by_name(self, name: str) -> FunctionRecord:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no function record named {name!r}") from None
