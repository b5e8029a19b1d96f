"""A small LZ77 (sliding-window dictionary) codec.

Configuration frames repeat structure across CLBs, so back-references to
earlier occurrences of the same LUT/switch patterns compress well even when
the data is not runs of a single byte.

Token format (byte-aligned for simplicity of the streaming decompressor):

* ``0x00 <length:1> <literal bytes>`` — up to 255 literal bytes.
* ``0x01 <distance:2> <length:2>``    — copy ``length`` bytes from ``distance``
  bytes back in the already-decoded output.

The compressor keeps hash chains as a ``head`` dict plus a ``prev`` link
array keyed by the exact 4-byte prefix packed into an int (maintained as a
rolling key, so no per-position ``bytes`` slicing).  Three exact-equivalence
optimisations make it fast without changing a single output byte relative to
the per-byte reference encoder:

* *dead-work elimination*: of a long match's interior positions, only the
  last :data:`WINDOW` can ever be reached by a later search (older ones would hit
  the distance bound first), so only those are inserted into the chains;
* *early rejection*: a candidate can only beat the current best match if it
  also matches at offset ``best_length``, so one byte probe skips hopeless
  candidates before any extension work;
* *sliced extension*: matches are extended by comparing successively smaller
  slices (256/16/1 bytes) instead of byte-at-a-time.

:class:`ContextLZ77Codec` (``"lz77ctx"``) is the same encoder and decoder
with the previous raw window as a preset dictionary (zlib's ``FDICT``,
RFC 1950): a window's matches may reach back into the window before it.  A
function's bit-stream repeats a handful of distinct CLB images across its
frames, so most of a window is already in the one the configuration module
has just streamed.  The first window has no context and is plain LZ77.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.bitstream.codecs.base import Codec, CodecError, register_codec

_LITERAL = 0x00
_MATCH = 0x01
_MAX_LITERAL = 255
_MIN_MATCH = 4
_MAX_MATCH = 0xFFFF
#: Farthest back (bytes) a match may reach, and candidates tried per position.
WINDOW = 4096
MAX_CHAIN = 32


class LZ77Codec(Codec):
    """Sliding-window LZ77 with a bounded candidate search."""

    name = "lz77"

    # ------------------------------------------------------------- compress
    def compress(self, data: bytes) -> bytes:
        return self._compress(bytes(data), 0)

    def _compress(self, data: bytes, history_len: int) -> bytes:
        """Encode ``data[history_len:]``; matches may reach back into the
        first *history_len* bytes, which are not emitted."""
        length = len(data)
        out = bytearray()
        window = WINDOW
        max_chain = MAX_CHAIN
        prefix_limit = length - 3  # positions with a full 4-byte prefix
        # Chains: head[key] = most recent position with that 4-byte prefix,
        # prev[pos] = previous position on pos's chain (-1 terminates).
        head: Dict[int, int] = {}
        head_get = head.get
        prev: List[int] = [-1] * max(0, prefix_limit)

        def flush_literal(start: int, end: int) -> None:
            while start < end:
                chunk_end = min(start + _MAX_LITERAL, end)
                out.append(_LITERAL)
                out.append(chunk_end - start)
                out.extend(data[start:chunk_end])
                start = chunk_end

        # Rolling 4-byte prefix key for the current index; only meaningful
        # while index < prefix_limit.
        key = (
            (data[0] << 24) | (data[1] << 16) | (data[2] << 8) | data[3]
            if length >= 4
            else 0
        )
        # The history is dictionary only: chain its positions, emit nothing.
        for index in range(min(history_len, prefix_limit)):
            prev[index] = head_get(key, -1)
            head[key] = index
            if index + 4 < length:
                key = ((key << 8) & 0xFFFFFF00) | data[index + 4]
        index = literal_start = history_len
        while index < length:
            best_length = 0
            best_distance = 0
            if index < prefix_limit:
                candidate = head_get(key, -1)
                if candidate >= 0:
                    limit = length - index
                    if limit > _MAX_MATCH:
                        limit = _MAX_MATCH
                    checked = 0
                    while candidate >= 0:
                        if index - candidate > window:
                            break
                        checked += 1
                        if checked > max_chain:
                            break
                        if best_length >= limit:
                            break
                        # A candidate can only beat the current best if it
                        # also matches at offset best_length; probe that byte
                        # before paying for full extension.
                        if data[candidate + best_length] == data[index + best_length]:
                            match_length = 0
                            while (
                                match_length + 256 <= limit
                                and data[candidate + match_length : candidate + match_length + 256]
                                == data[index + match_length : index + match_length + 256]
                            ):
                                match_length += 256
                            while (
                                match_length + 16 <= limit
                                and data[candidate + match_length : candidate + match_length + 16]
                                == data[index + match_length : index + match_length + 16]
                            ):
                                match_length += 16
                            while (
                                match_length < limit
                                and data[candidate + match_length] == data[index + match_length]
                            ):
                                match_length += 1
                            if match_length > best_length:
                                best_length = match_length
                                best_distance = index - candidate
                        candidate = prev[candidate]
            if best_length >= _MIN_MATCH:
                flush_literal(literal_start, index)
                out.append(_MATCH)
                out += struct.pack(">HH", best_distance, best_length)
                end = index + best_length
                # Insert the match's interior positions — but only the last
                # ``window`` of them: any older interior position p has
                # j - p > window for every future search index j >= end, so
                # the reference encoder's traversal could never reach it.
                start = end - window
                if start < index:
                    start = index
                stop = end if end < prefix_limit else prefix_limit
                if start < stop:
                    if start == index:
                        rolling = key
                    else:
                        rolling = (
                            (data[start] << 24)
                            | (data[start + 1] << 16)
                            | (data[start + 2] << 8)
                            | data[start + 3]
                        )
                    if stop < prefix_limit:
                        for position in range(start, stop):
                            prev[position] = head_get(rolling, -1)
                            head[rolling] = position
                            rolling = ((rolling << 8) & 0xFFFFFF00) | data[position + 4]
                        key = rolling  # the key for index == end
                    else:
                        # The match reaches the tail: the final prefix
                        # position has no byte to roll in, and key is dead
                        # past prefix_limit.
                        for position in range(start, stop):
                            prev[position] = head_get(rolling, -1)
                            head[rolling] = position
                            if position + 4 < length:
                                rolling = ((rolling << 8) & 0xFFFFFF00) | data[position + 4]
                index = end
                literal_start = end
            else:
                if index < prefix_limit:
                    prev[index] = head_get(key, -1)
                    head[key] = index
                    if index + 4 < length:
                        key = ((key << 8) & 0xFFFFFF00) | data[index + 4]
                index += 1
        flush_literal(literal_start, length)
        return bytes(out)

    # ----------------------------------------------------------- decompress
    def decompress(self, blob: bytes) -> bytes:
        return self._decompress(blob, b"")

    def _decompress(self, blob: bytes, history: bytes) -> bytes:
        """Decode *blob* after *history*; back-references may reach into the
        history but not before it.  Returns only the bytes after it."""
        out = bytearray(history)
        index = 0
        length = len(blob)
        while index < length:
            tag = blob[index]
            index += 1
            if tag == _LITERAL:
                if index >= length:
                    raise CodecError("truncated LZ77 literal header")
                count = blob[index]
                index += 1
                if index + count > length:
                    raise CodecError("truncated LZ77 literal data")
                out += blob[index : index + count]
                index += count
            elif tag == _MATCH:
                if index + 4 > length:
                    raise CodecError("truncated LZ77 match token")
                distance, match_length = struct.unpack_from(">HH", blob, index)
                index += 4
                produced = len(out)
                if distance == 0 or distance > produced:
                    raise CodecError(f"LZ77 back-reference distance {distance} is invalid")
                start = produced - distance
                if distance >= match_length:
                    out += out[start : start + match_length]
                else:
                    # Overlapping copy: replicate the distance-sized segment.
                    segment = out[start:]
                    repeats = match_length // distance + 1
                    out += (segment * repeats)[:match_length]
            else:
                raise CodecError(f"unknown LZ77 token tag 0x{tag:02x}")
        del out[: len(history)]
        return bytes(out)


class ContextLZ77Codec(LZ77Codec):
    """LZ77 whose matches may reach into the previous raw window."""

    name = "lz77ctx"

    def compress_window(self, window: bytes, previous_window: Optional[bytes] = None) -> bytes:
        history = bytes(previous_window or b"")
        return self._compress(history + bytes(window), len(history))

    def decompress_window(self, blob: bytes, previous_window: Optional[bytes] = None) -> bytes:
        return self._decompress(blob, previous_window or b"")


register_codec(LZ77Codec.name, LZ77Codec)
register_codec(ContextLZ77Codec.name, ContextLZ77Codec)
