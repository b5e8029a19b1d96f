"""Frame-differential compression.

Adjacent frames of the same function are often near-identical (datapath bit
slices replicate column to column), so XOR-ing each window against the
previous raw window turns most of the payload into zeros, which the inner
run-length stage then collapses.  This mirrors the "difference based" flow of
Xilinx XAPP290 referenced by the paper, applied between frames of one
bit-stream rather than between two full device images.

The codec is *context dependent*: the windowed layer passes the previous raw
window to :meth:`compress_window` / :meth:`decompress_window`.  When used on a
whole buffer (no context), it chunks the buffer internally using
:data:`FRAME_SIZE` as the window.
"""

from __future__ import annotations

from typing import Optional

from repro.bitstream.codecs.base import Codec, register_codec
from repro.bitstream.codecs.rle import RunLengthCodec

#: Bytes per frame when a whole buffer is compressed without context.
FRAME_SIZE = 1024


def _xor_bytes(data: bytes, reference: bytes) -> bytes:
    """XOR *data* with *reference* (reference padded/truncated to match).

    Both buffers are treated as one big integer so the XOR runs word-at-a-time
    instead of byte-at-a-time.
    """
    size = len(data)
    if not size:
        return b""
    if len(reference) > size:
        reference = reference[:size]
    value = int.from_bytes(data, "big") ^ (
        int.from_bytes(reference, "big") << (8 * (size - len(reference)))
    )
    return value.to_bytes(size, "big")


class FrameDifferentialCodec(Codec):
    """XOR-against-previous-frame followed by run-length coding."""

    name = "framediff"

    def __init__(self) -> None:
        self._inner = RunLengthCodec()

    # --------------------------------------------------------- whole buffer
    def compress(self, data: bytes) -> bytes:
        # XOR-ing every frame with the previous raw frame is, viewed as one
        # big integer, ``data ^ (data >> frame_size bytes)``: the shift drops
        # frame i-1's bytes onto frame i (and zeros onto frame 0).
        size = len(data)
        if not size:
            return self._inner.compress(b"")
        value = int.from_bytes(data, "big")
        transformed = value ^ (value >> (8 * FRAME_SIZE))
        return self._inner.compress(transformed.to_bytes(size, "big"))

    def decompress(self, blob: bytes) -> bytes:
        transformed = self._inner.decompress(blob)
        size = len(transformed)
        if not size:
            return b""
        # Inverse of the shifted XOR: a strided prefix-XOR, computed with the
        # doubling trick (each pass folds in frames twice as far back).
        value = int.from_bytes(transformed, "big")
        shift = 8 * FRAME_SIZE
        total_bits = 8 * size
        while shift < total_bits:
            value ^= value >> shift
            shift <<= 1
        return value.to_bytes(size, "big")

    # ------------------------------------------------------------- windowed
    def compress_window(self, window: bytes, previous_window: Optional[bytes] = None) -> bytes:
        reference = previous_window if previous_window is not None else b"\x00" * len(window)
        return self._inner.compress(_xor_bytes(window, reference))

    def decompress_window(self, blob: bytes, previous_window: Optional[bytes] = None) -> bytes:
        delta = self._inner.decompress(blob)
        reference = previous_window if previous_window is not None else b"\x00" * len(delta)
        return _xor_bytes(delta, reference)


register_codec(FrameDifferentialCodec.name, FrameDifferentialCodec)
