"""Canonical Huffman coding over bytes.

The encoder stores the code-length table (256 bytes) followed by the packed
code words; the decoder rebuilds the canonical code from the lengths.  Frame
payloads have a heavily skewed byte histogram (zero dominates), which Huffman
captures without needing any knowledge of the frame structure.

Decoding is table driven: a fixed-width lookup table maps the next
``_TABLE_BITS`` bits of the stream to *every complete symbol* inside that
window at once, so the hot loop emits several bytes per table probe instead
of walking the code tree bit by bit.  Each ``decompress`` builds its own
table: a card decodes an image once and replays every later load from the
configuration module's memo, so a table is rarely asked for twice.  Codes
longer than the table width fall back to a ``(length, code) -> symbol``
dictionary.  The wire format is unchanged from the original per-bit
implementation.
"""

from __future__ import annotations

import heapq
import struct
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.bitstream.codecs.base import Codec, CodecError, register_codec

_MAX_CODE_LENGTH = 32

#: Width of the fixed-width decode window.  4096 entries keeps table
#: construction cheap while letting short (skewed-histogram) codes decode
#: many symbols per probe.
_TABLE_BITS = 12


def _code_lengths(data: bytes) -> List[int]:
    """Huffman code length per byte value (0 for absent symbols)."""
    counts = Counter(data)
    if len(counts) == 1:
        # A single distinct symbol still needs a 1-bit code.
        symbol = next(iter(counts))
        lengths = [0] * 256
        lengths[symbol] = 1
        return lengths
    heap: List[Tuple[int, int, Tuple]] = []
    for ticket, (symbol, count) in enumerate(sorted(counts.items())):
        heap.append((count, ticket, (symbol,)))
    heapq.heapify(heap)
    ticket = len(heap)
    lengths = [0] * 256
    # Standard Huffman tree construction, tracking only depths.
    depth: Dict[int, int] = {symbol: 0 for symbol in counts}
    while len(heap) > 1:
        count_a, _, symbols_a = heapq.heappop(heap)
        count_b, _, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a + symbols_b:
            depth[symbol] += 1
        ticket += 1
        heapq.heappush(heap, (count_a + count_b, ticket, symbols_a + symbols_b))
    for symbol, length in depth.items():
        lengths[symbol] = length
    return lengths


def _canonical_codes(lengths: List[int]) -> Dict[int, Tuple[int, int]]:
    """Map symbol -> (code, length) for a canonical Huffman code."""
    symbols = [(length, symbol) for symbol, length in enumerate(lengths) if length > 0]
    symbols.sort()
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for length, symbol in symbols:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class _DecodeTable:
    """Precomputed decoding state for one canonical code.

    ``multi[window]`` packs every complete symbol inside a ``_TABLE_BITS``-bit
    window as ``(consumed_bits, symbols_bytes)``; ``None`` marks windows whose
    first code is longer than the table (resolved via ``long_codes``).
    """

    __slots__ = ("max_length", "multi", "long_codes")

    def __init__(self, lengths: List[int]) -> None:
        codes = _canonical_codes(lengths)
        if not codes:
            raise CodecError("Huffman length table describes no symbols")
        self.max_length = max(length for _, length in codes.values())
        self.long_codes: Dict[Tuple[int, int], int] = {
            (length, code): symbol for symbol, (code, length) in codes.items()
        }
        width = _TABLE_BITS
        size = 1 << width
        # First pass: one symbol per window (packed as length << 8 | symbol);
        # a code longer than the table is left to ``long_codes``.
        first: List[int] = [0] * size
        for symbol, code, length in [(s, c, n) for s, (c, n) in codes.items() if n <= width]:
            span = 1 << (width - length)
            first[code * span : (code + 1) * span] = [(length << 8) | symbol] * span
        # Second pass: greedily chain symbols until the window is exhausted.
        multi: List[Optional[Tuple[int, bytes]]] = [None] * size
        for window, entry in enumerate(first):
            if entry:
                consumed = 0
                symbols = bytearray()
                while entry:
                    length = entry >> 8
                    if consumed + length > width:
                        break
                    consumed += length
                    symbols.append(entry & 0xFF)
                    remaining = width - consumed
                    entry = first[((window & ((1 << remaining) - 1)) << consumed)] if remaining else 0
                multi[window] = (consumed, bytes(symbols))
        self.multi = multi


class HuffmanCodec(Codec):
    """Canonical Huffman codec with an explicit length table header."""

    name = "huffman"

    def compress(self, data: bytes) -> bytes:
        if not data:
            return struct.pack(">I", 0)
        lengths = _code_lengths(data)
        if max(lengths) > _MAX_CODE_LENGTH:
            # Pathological distributions; fall back to storing raw (tag 0xFF).
            return struct.pack(">I", 0xFFFFFFFF) + data
        codes = _canonical_codes(lengths)
        code_of = [0] * 256
        length_of = [0] * 256
        for symbol, (code, length) in codes.items():
            code_of[symbol] = code
            length_of[symbol] = length
        out = bytearray()
        acc = 0
        acc_bits = 0
        for byte in data:
            acc = (acc << length_of[byte]) | code_of[byte]
            acc_bits += length_of[byte]
            if acc_bits >= 512:
                whole = acc_bits & ~7
                remainder = acc_bits - whole
                out += (acc >> remainder).to_bytes(whole >> 3, "big")
                acc &= (1 << remainder) - 1
                acc_bits = remainder
        if acc_bits & 7:
            pad = 8 - (acc_bits & 7)
            acc <<= pad
            acc_bits += pad
        if acc_bits:
            out += acc.to_bytes(acc_bits >> 3, "big")
        header = struct.pack(">I", len(data)) + bytes(lengths)
        return header + bytes(out)

    def decompress(self, blob: bytes) -> bytes:
        if len(blob) < 4:
            raise CodecError("truncated Huffman header")
        (count,) = struct.unpack_from(">I", blob, 0)
        if count == 0:
            return b""
        if count == 0xFFFFFFFF:
            return blob[4:]
        if len(blob) < 4 + 256:
            raise CodecError("truncated Huffman length table")
        table = _DecodeTable(list(blob[4 : 4 + 256]))
        payload = blob[4 + 256 :]
        multi = table.multi
        width = _TABLE_BITS
        low_width = (1 << width) - 1

        out = bytearray()
        buf = 0
        buf_bits = 0
        pos = 0
        size = len(payload)
        produced = 0
        # Refill while at least 48 bits short so even a maximum-length code
        # (32 bits) never sees a partially-filled buffer mid-payload; when the
        # slow path runs with buf_bits < 48, the payload is fully consumed.
        while produced < count:
            if buf_bits < 48 and pos < size:
                # Small refills keep the bit buffer a machine-word-sized int;
                # big chunks make every shift/mask a multi-word operation.
                chunk = payload[pos : pos + 64]
                pos += len(chunk)
                buf = (buf << (len(chunk) * 8)) | int.from_bytes(chunk, "big")
                buf_bits += len(chunk) * 8
            if buf_bits >= width:
                window = buf >> (buf_bits - width)
            else:
                window = (buf << (width - buf_bits)) & low_width
            entry = multi[window]
            if entry is not None:
                consumed, symbols = entry
                if consumed <= buf_bits and produced + len(symbols) <= count:
                    buf_bits -= consumed
                    buf &= (1 << buf_bits) - 1
                    out += symbols
                    produced += len(symbols)
                    continue
            # Long code, stream tail, or declared count nearly reached:
            # decode a single symbol from the real (unpadded) bits.
            produced, buf, buf_bits = self._decode_one(table, buf, buf_bits, out, produced)
        return bytes(out)

    @staticmethod
    def _decode_one(
        table: _DecodeTable,
        buf: int,
        buf_bits: int,
        out: bytearray,
        produced: int,
    ) -> Tuple[int, int, int]:
        """Decode exactly one symbol (slow path: long codes / stream tail)."""
        long_codes = table.long_codes
        for length in range(1, table.max_length + 1):
            if length > buf_bits:
                raise CodecError("Huffman stream ended mid-symbol")
            code = buf >> (buf_bits - length)
            if (length, code) in long_codes:
                buf_bits -= length
                buf &= (1 << buf_bits) - 1
                out.append(long_codes[(length, code)])
                return produced + 1, buf, buf_bits
        raise CodecError("invalid Huffman code word")


register_codec(HuffmanCodec.name, HuffmanCodec)
