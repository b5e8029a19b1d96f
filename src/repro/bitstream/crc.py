"""CRC-32 (IEEE 802.3 polynomial).

The configuration port verifies a CRC over every bit-stream before committing
the configuration, exactly as real devices do (CRC-32 is also one of the
functions offered by the co-processor's function bank).  :func:`crc32`
delegates to :func:`zlib.crc32`; the byte-at-a-time table model of the
hardware engine is a test oracle (``tests/oracles/crc_table.py``) and the
test suite holds the two bit-compatible.
"""

from __future__ import annotations

import zlib


def crc32(data: bytes, initial: int = 0) -> int:
    """CRC-32 of *data* (IEEE 802.3); delegates to :func:`zlib.crc32`.

    ``initial`` accepts the running value returned by a previous call so large
    images can be checksummed incrementally (the configuration port does so
    frame by frame).
    """
    return zlib.crc32(data, initial & 0xFFFFFFFF)

