"""Table-driven CRC-32 (IEEE 802.3), a byte at a time: the seed's model of the
hardware CRC engine, moved here from ``repro.bitstream.crc``.  ``crc32`` there
delegates to :func:`zlib.crc32`; ``tests/test_bitstream_crc.py`` holds
the two bit-compatible.
"""

from __future__ import annotations

from typing import List

#: Reflected polynomial for IEEE CRC-32.
_POLYNOMIAL = 0xEDB88320


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ _POLYNOMIAL
            else:
                value >>= 1
        table.append(value)
    return table


_TABLE = _build_table()


def crc32_reference(data: bytes, initial: int = 0) -> int:
    """Table-driven CRC-32, byte at a time: the hardware-engine model."""
    crc = (initial ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
