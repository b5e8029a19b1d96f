"""Golomb-Rice coding of zero-run lengths.

Configuration bit-streams of sparsely used fabrics are mostly zero bytes with
occasional configured bytes.  This codec models the classic FPGA bit-stream
compression approach of Golomb-coding the lengths of zero runs and emitting
non-zero bytes literally.

Stream layout: ``<orig_len:4><k:1>`` then a bit stream of tokens, each token
being ``<zero_run (Rice k)> <flag bit>``; when the flag is 1 a literal byte
(8 bits) follows.  The final token may have flag 0 meaning "run reaches the
end of the data".

The hot paths are batched: the encoder walks non-zero bytes with a compiled
regex (so zero runs are never touched byte by byte) and packs each token into
an int accumulator in one shot; the decoder keeps a small int bit-buffer and
scans unary runs word-at-a-time via ``int.bit_length``.  The wire format is
unchanged from the per-bit implementation.
"""

from __future__ import annotations

import re
import struct

from repro.bitstream.codecs.base import Codec, CodecError, register_codec

_NONZERO = re.compile(rb"[^\x00]")


def _choose_k(data: bytes) -> int:
    """Pick the Rice parameter from the mean zero-run length.

    Equivalent to collecting the zero-run length before every non-zero byte
    plus the trailing run: the run lengths sum to the total zero count and
    there is one run per non-zero byte plus the final one.
    """
    zero_count = data.count(0)
    run_count = (len(data) - zero_count) + 1
    mean = zero_count / run_count
    k = 0
    while (1 << (k + 1)) <= max(1.0, mean):
        k += 1
    return min(k, 15)


class GolombRiceCodec(Codec):
    """Zero-run / literal codec with Rice-coded run lengths."""

    name = "golomb"

    def compress(self, data: bytes) -> bytes:
        k = _choose_k(data)
        low_k = (1 << k) - 1
        out = bytearray()
        acc = 0
        acc_bits = 0
        previous = 0
        for match in _NONZERO.finditer(data):
            position = match.start()
            run = position - previous
            previous = position + 1
            # One token: unary(run >> k), k-bit remainder, flag 1, literal.
            quotient = run >> k
            acc = (acc << (quotient + 1)) | ((1 << (quotient + 1)) - 2)
            if k:
                acc = (acc << k) | (run & low_k)
            acc = (acc << 9) | 0x100 | data[position]
            acc_bits += quotient + 1 + k + 9
            if acc_bits >= 512:
                whole = acc_bits & ~7
                remainder_bits = acc_bits - whole
                out += (acc >> remainder_bits).to_bytes(whole >> 3, "big")
                acc &= (1 << remainder_bits) - 1
                acc_bits = remainder_bits
        tail_run = len(data) - previous
        if tail_run:
            quotient = tail_run >> k
            acc = (acc << (quotient + 1)) | ((1 << (quotient + 1)) - 2)
            if k:
                acc = (acc << k) | (tail_run & low_k)
            acc <<= 1  # flag 0: run reaches the end of the data
            acc_bits += quotient + 1 + k + 1
        if acc_bits & 7:
            pad = 8 - (acc_bits & 7)
            acc <<= pad
            acc_bits += pad
        if acc_bits:
            out += acc.to_bytes(acc_bits >> 3, "big")
        return struct.pack(">IB", len(data), k) + bytes(out)

    def decompress(self, blob: bytes) -> bytes:
        if len(blob) < 5:
            raise CodecError("truncated Golomb-Rice header")
        original_length, k = struct.unpack_from(">IB", blob, 0)
        payload = blob[5:]
        out = bytearray()
        buf = 0
        buf_bits = 0
        pos = 0
        size = len(payload)
        while len(out) < original_length:
            # Unary quotient, scanned word-at-a-time over the bit buffer.
            quotient = 0
            while True:
                if not buf_bits:
                    chunk = payload[pos : pos + 64]
                    if not chunk:
                        raise CodecError("Golomb-Rice stream ended mid-token")
                    pos += len(chunk)
                    buf = int.from_bytes(chunk, "big")
                    buf_bits = len(chunk) * 8
                inverted = buf ^ ((1 << buf_bits) - 1)
                if inverted:
                    zero_pos = inverted.bit_length() - 1
                    quotient += buf_bits - 1 - zero_pos
                    buf_bits = zero_pos
                    buf &= (1 << buf_bits) - 1
                    break
                quotient += buf_bits
                buf = 0
                buf_bits = 0
            # k-bit remainder, flag bit, optional 8-bit literal.
            want = k + 9  # enough for remainder + flag + literal
            while buf_bits < want and pos < size:
                chunk = payload[pos : pos + 64]
                pos += len(chunk)
                buf = (buf << (len(chunk) * 8)) | int.from_bytes(chunk, "big")
                buf_bits += len(chunk) * 8
            if buf_bits < k:
                raise CodecError("Golomb-Rice stream ended mid-token")
            if k:
                buf_bits -= k
                run = (quotient << k) | (buf >> buf_bits)
                buf &= (1 << buf_bits) - 1
            else:
                run = quotient
            if run:
                out += b"\x00" * run
                if len(out) > original_length:
                    raise CodecError("Golomb-Rice run overruns the declared length")
            if len(out) == original_length:
                break
            if not buf_bits:
                raise CodecError("Golomb-Rice stream missing literal flag")
            buf_bits -= 1
            flag = buf >> buf_bits
            buf &= (1 << buf_bits) - 1
            if not flag:
                break
            if buf_bits < 8:
                raise CodecError("Golomb-Rice stream ended mid-token")
            buf_bits -= 8
            out.append(buf >> buf_bits)
            buf &= (1 << buf_bits) - 1
        if len(out) != original_length:
            raise CodecError(
                f"Golomb-Rice produced {len(out)} bytes, expected {original_length}"
            )
        return bytes(out)


register_codec(GolombRiceCodec.name, GolombRiceCodec)
