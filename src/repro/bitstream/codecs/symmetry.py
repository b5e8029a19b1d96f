"""CLB-symmetry-aware compression (the paper's stated open problem).

Within one frame every CLB serialises the same sequence of fields (LUT truth
tables, FF init bits, switch bytes).  Because neighbouring CLBs of the same
function tend to configure *homologous* fields similarly (a 32-bit datapath
repeats the same slice logic 32 times), transposing the frame payload — so
that byte *i* of every CLB becomes adjacent — produces much longer runs and
tighter back-references than the raw CLB-major order.  The transposed stream
is then delta-coded (each byte XOR its predecessor) and run-length coded.

The transform is exactly invertible as long as the CLB stride is known, which
it is: the stride is a device constant recorded in the compressed header.
"""

from __future__ import annotations

import struct

from repro.bitstream.codecs.base import Codec, CodecError, register_codec
from repro.bitstream.codecs.rle import RunLengthCodec


def _transpose(data: bytes, stride: int) -> bytes:
    """Reorder a CLB-major payload into field-major order.

    Bytes beyond the last whole stride (the "tail") are appended unchanged.
    Each output column is an extended byte slice, so the reordering runs at
    C speed instead of byte-at-a-time.
    """
    whole = (len(data) // stride) * stride
    body, tail = data[:whole], data[whole:]
    rows = len(body) // stride
    out = bytearray(len(body))
    for column in range(stride):
        out[column * rows : (column + 1) * rows] = body[column::stride]
    return bytes(out) + tail


def _untranspose(data: bytes, stride: int) -> bytes:
    """Inverse of :func:`_transpose`."""
    whole = (len(data) // stride) * stride
    body, tail = data[:whole], data[whole:]
    rows = len(body) // stride
    out = bytearray(len(body))
    for column in range(stride):
        out[column::stride] = body[column * rows : (column + 1) * rows]
    return bytes(out) + tail


def _delta_encode(data: bytes) -> bytes:
    """Each byte XOR its predecessor: ``data ^ (data >> 1 byte)`` as an int."""
    size = len(data)
    if not size:
        return b""
    value = int.from_bytes(data, "big")
    return (value ^ (value >> 8)).to_bytes(size, "big")


def _delta_decode(data: bytes) -> bytes:
    """Byte-wise prefix XOR, via the doubling trick on one big integer."""
    size = len(data)
    if not size:
        return b""
    value = int.from_bytes(data, "big")
    shift = 8
    total_bits = 8 * size
    while shift < total_bits:
        value ^= value >> shift
        shift <<= 1
    return value.to_bytes(size, "big")


class SymmetryAwareCodec(Codec):
    """Transpose-by-CLB, delta, then run-length code.

    Parameters
    ----------
    clb_stride:
        Number of configuration bytes per CLB (the shipped CLB's is
        ``repro.fpga.geometry.CLB_CONFIG_BYTES``, 33; the default, 42, is
        not it).  The value used is always written into the compressed
        header, so decompression never depends on out-of-band knowledge.
    """

    name = "symmetry"

    def __init__(self, clb_stride: int = 42) -> None:
        if clb_stride <= 0:
            raise ValueError("CLB stride must be positive")
        self.clb_stride = clb_stride
        self._inner = RunLengthCodec()

    def compress(self, data: bytes) -> bytes:
        stride = min(self.clb_stride, max(1, len(data)))
        transformed = _delta_encode(_transpose(data, stride))
        return struct.pack(">I", stride) + self._inner.compress(transformed)

    def decompress(self, blob: bytes) -> bytes:
        if len(blob) < 4:
            raise CodecError("truncated symmetry codec header")
        (stride,) = struct.unpack_from(">I", blob, 0)
        if stride <= 0:
            raise CodecError("symmetry codec header declares a non-positive stride")
        transformed = self._inner.decompress(blob[4:])
        return _untranspose(_delta_decode(transformed), stride)


register_codec(SymmetryAwareCodec.name, SymmetryAwareCodec)
