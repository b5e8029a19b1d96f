"""Packetised configuration bit-stream container.

The format is deliberately close in spirit to vendor bit-streams (a header,
typed packets carrying frame data, a trailing CRC) while remaining fully
self-describing so the microcontroller's configuration module can parse it
without out-of-band information.

Layout
------

::

    +-------------------+
    | header (fixed)    |  magic, version, function id/name, geometry info,
    |                   |  frame count, frame payload size, I/O sizes
    +-------------------+
    | FRAME_DATA packet |  slot index + payload          (repeated per frame)
    +-------------------+
    | END packet        |  CRC-32 over all frame payloads
    +-------------------+

Frame payloads are *relocatable*: packets carry the frame's slot index within
the function's region (0..frame_count-1), not an absolute device address.  The
mini OS chooses the physical frames at load time from the free frame list and
the configuration module patches the addresses while streaming — this is what
lets the frame replacement policy place a function anywhere.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bitstream.crc import crc32


class BitstreamFormatError(ValueError):
    """Raised when a byte string is not a well-formed bit-stream."""


MAGIC = b"AGIL"
VERSION = 1

_HEADER_STRUCT = struct.Struct(">4sBB16sIIIIII")
_PACKET_STRUCT = struct.Struct(">BHI")


class PacketType:
    """Packet type identifiers (class of named constants, not an enum, so the
    values serialise directly as single bytes)."""

    FRAME_DATA = 0x01
    END = 0x7F


@dataclass(frozen=True)
class BitstreamHeader:
    """Fixed-size header at the start of every bit-stream."""

    function_id: int
    function_name: str
    frame_count: int
    frame_payload_bytes: int
    input_bytes: int
    output_bytes: int
    lut_count: int = 0
    flags: int = 0

    #: Flag bit set on partial (frame-relocatable) bit-streams; in this
    #: reproduction every generated bit-stream is partial unless it covers the
    #: whole device.
    FLAG_PARTIAL = 0x01

    def __post_init__(self) -> None:
        if self.function_id < 0 or self.function_id > 0xFFFFFFFF:
            raise ValueError("function id must fit in 32 bits")
        if len(self.function_name.encode("ascii", errors="replace")) > 16:
            raise ValueError("function name is limited to 16 ASCII bytes")
        if self.frame_count <= 0:
            raise ValueError("a bit-stream must cover at least one frame")
        if self.frame_payload_bytes <= 0:
            raise ValueError("frame payload size must be positive")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("I/O sizes cannot be negative")

    def pack(self) -> bytes:
        name_bytes = self.function_name.encode("ascii", errors="replace")[:16].ljust(16, b"\x00")
        return _HEADER_STRUCT.pack(
            MAGIC,
            VERSION,
            self.flags,
            name_bytes,
            self.function_id,
            self.frame_count,
            self.frame_payload_bytes,
            self.input_bytes,
            self.output_bytes,
            self.lut_count,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "BitstreamHeader":
        if len(data) < _HEADER_STRUCT.size:
            raise BitstreamFormatError("bit-stream shorter than its header")
        (
            magic,
            version,
            flags,
            name_bytes,
            function_id,
            frame_count,
            frame_payload_bytes,
            input_bytes,
            output_bytes,
            lut_count,
        ) = _HEADER_STRUCT.unpack_from(data)
        if magic != MAGIC:
            raise BitstreamFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise BitstreamFormatError(f"unsupported bit-stream version {version}")
        return cls(
            function_id=function_id,
            function_name=name_bytes.rstrip(b"\x00").decode("ascii", errors="replace"),
            frame_count=frame_count,
            frame_payload_bytes=frame_payload_bytes,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            lut_count=lut_count,
            flags=flags,
        )

    @staticmethod
    def packed_size() -> int:
        return _HEADER_STRUCT.size


@dataclass(frozen=True)
class FrameDataPacket:
    """Configuration payload for one frame slot of the function's region."""

    slot: int
    payload: bytes

    def pack(self) -> bytes:
        return _PACKET_STRUCT.pack(PacketType.FRAME_DATA, self.slot, len(self.payload)) + self.payload


@dataclass
class Bitstream:
    """A parsed (or freshly built) configuration bit-stream."""

    header: BitstreamHeader
    frames: List[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.frames) != self.header.frame_count:
            raise BitstreamFormatError(
                f"header announces {self.header.frame_count} frames, "
                f"got {len(self.frames)} frame payloads"
            )
        for index, payload in enumerate(self.frames):
            if len(payload) != self.header.frame_payload_bytes:
                raise BitstreamFormatError(
                    f"frame slot {index} payload is {len(payload)} bytes, "
                    f"expected {self.header.frame_payload_bytes}"
                )

    # ------------------------------------------------------------ properties
    @property
    def payload_crc(self) -> int:
        value = 0
        for payload in self.frames:
            value = crc32(payload, value)
        return value

    @property
    def raw_size(self) -> int:
        """Size of the serialised bit-stream in bytes."""
        per_packet = _PACKET_STRUCT.size + self.header.frame_payload_bytes
        end_packet = _PACKET_STRUCT.size + 4
        return BitstreamHeader.packed_size() + len(self.frames) * per_packet + end_packet

    # ------------------------------------------------------------- serialise
    def to_bytes(self) -> bytes:
        parts = [self.header.pack()]
        for slot, payload in enumerate(self.frames):
            parts.append(FrameDataPacket(slot, payload).pack())
        crc_value = self.payload_crc
        parts.append(_PACKET_STRUCT.pack(PacketType.END, 0, 4))
        parts.append(struct.pack(">I", crc_value))
        return b"".join(parts)

    def __len__(self) -> int:
        return self.raw_size


def build_bitstream(
    function_id: int,
    function_name: str,
    frame_payloads: Sequence[bytes],
    input_bytes: int,
    output_bytes: int,
    lut_count: int = 0,
    partial: bool = True,
) -> Bitstream:
    """Assemble a :class:`Bitstream` from per-frame configuration payloads."""
    if not frame_payloads:
        raise BitstreamFormatError("a bit-stream needs at least one frame payload")
    payload_sizes = {len(payload) for payload in frame_payloads}
    if len(payload_sizes) != 1:
        raise BitstreamFormatError("all frame payloads must have the same size")
    header = BitstreamHeader(
        function_id=function_id,
        function_name=function_name,
        frame_count=len(frame_payloads),
        frame_payload_bytes=payload_sizes.pop(),
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        lut_count=lut_count,
        flags=BitstreamHeader.FLAG_PARTIAL if partial else 0,
    )
    return Bitstream(header=header, frames=list(frame_payloads))


def parse_bitstream(data: bytes, verify_crc: bool = True) -> Bitstream:
    """Parse and validate a serialised bit-stream.

    Raises :class:`BitstreamFormatError` on malformed input or (when
    *verify_crc* is set) on a CRC mismatch.
    """
    header = BitstreamHeader.unpack(data)
    offset = BitstreamHeader.packed_size()
    frames: List[bytes] = [b""] * header.frame_count
    seen = [False] * header.frame_count
    stored_crc = None
    while offset < len(data):
        if offset + _PACKET_STRUCT.size > len(data):
            raise BitstreamFormatError("truncated packet header")
        packet_type, slot, length = _PACKET_STRUCT.unpack_from(data, offset)
        offset += _PACKET_STRUCT.size
        if offset + length > len(data):
            raise BitstreamFormatError("truncated packet payload")
        payload = data[offset : offset + length]
        offset += length
        if packet_type == PacketType.FRAME_DATA:
            if not 0 <= slot < header.frame_count:
                raise BitstreamFormatError(f"frame slot {slot} outside header range")
            if seen[slot]:
                raise BitstreamFormatError(f"frame slot {slot} appears twice")
            if length != header.frame_payload_bytes:
                raise BitstreamFormatError(
                    f"frame slot {slot} payload is {length} bytes, "
                    f"expected {header.frame_payload_bytes}"
                )
            frames[slot] = payload
            seen[slot] = True
        elif packet_type == PacketType.END:
            if length != 4:
                raise BitstreamFormatError("END packet must carry a 4-byte CRC")
            (stored_crc,) = struct.unpack(">I", payload)
        else:
            raise BitstreamFormatError(f"unknown packet type 0x{packet_type:02x}")
    if not all(seen):
        missing = [index for index, flag in enumerate(seen) if not flag]
        raise BitstreamFormatError(f"bit-stream is missing frame slots {missing}")
    bitstream = Bitstream(header=header, frames=frames)
    if verify_crc:
        if stored_crc is None:
            raise BitstreamFormatError("bit-stream has no END packet / CRC")
        if stored_crc != bitstream.payload_crc:
            raise BitstreamFormatError(
                f"CRC mismatch: stored 0x{stored_crc:08x}, computed 0x{bitstream.payload_crc:08x}"
            )
    return bitstream
