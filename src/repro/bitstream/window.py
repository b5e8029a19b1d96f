"""Window-by-window compression and streaming decompression.

The paper's configuration module "decompresses the compressed bit-stream
window by window and passes the configuration bit-stream to the FPGA".  The
:class:`WindowedCompressor` splits a serialised bit-stream into fixed-size
windows and compresses each independently (passing the previous raw window as
context for differential codecs); the resulting :class:`CompressedImage` is
what the host downloads into the ROM.  The :class:`WindowedDecompressor`
yields raw windows one at a time so the configuration module can stream them
to the configuration port without ever buffering the whole image.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.bitstream.codecs.base import Codec, CodecError, get_codec
from repro.bitstream.crc import crc32

_IMAGE_MAGIC = b"AGCW"
_IMAGE_HEADER = struct.Struct(">4sB15sIII")
_WINDOW_HEADER = struct.Struct(">II")


@dataclass
class CompressedImage:
    """A windowed, compressed bit-stream image as stored in the ROM.

    Attributes
    ----------
    codec_name:
        Registry name of the codec used for every window.
    window_bytes:
        Raw (uncompressed) size of each window except possibly the last.
    original_length:
        Total uncompressed length in bytes.
    windows:
        The compressed windows, in order.
    """

    codec_name: str
    window_bytes: int
    original_length: int
    windows: List[bytes] = field(default_factory=list)

    @property
    def stored_length(self) -> int:
        """Bytes the image occupies in the ROM, headers included."""
        return _IMAGE_HEADER.size + sum(
            _WINDOW_HEADER.size + len(window) for window in self.windows
        )

    @property
    def compression_ratio(self) -> float:
        """original / stored; values above 1.0 mean the image shrank."""
        return self.original_length / max(1, self.stored_length)

    @property
    def window_count(self) -> int:
        return len(self.windows)

    # ------------------------------------------------------------ serialise
    def to_bytes(self) -> bytes:
        """Serialise for storage in the ROM.

        Single pass: the per-window CRC and the running payload CRC are
        computed together, then the header is patched in front.
        """
        name_bytes = self.codec_name.encode("ascii")[:15].ljust(15, b"\x00")
        payload_crc = 0
        parts: List[bytes] = [b""]  # placeholder for the image header
        for window in self.windows:
            payload_crc = crc32(window, payload_crc)
            parts.append(_WINDOW_HEADER.pack(len(window), crc32(window)))
            parts.append(window)
        parts[0] = _IMAGE_HEADER.pack(
            _IMAGE_MAGIC,
            1,
            name_bytes,
            self.window_bytes,
            self.original_length,
            payload_crc,
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedImage":
        """Parse an image previously produced by :meth:`to_bytes`."""
        if len(data) < _IMAGE_HEADER.size:
            raise CodecError("compressed image shorter than its header")
        magic, version, name_bytes, window_bytes, original_length, stored_crc = (
            _IMAGE_HEADER.unpack_from(data)
        )
        if magic != _IMAGE_MAGIC:
            raise CodecError(f"bad compressed-image magic {magic!r}")
        if version != 1:
            raise CodecError(f"unsupported compressed-image version {version}")
        codec_name = name_bytes.rstrip(b"\x00").decode("ascii")
        offset = _IMAGE_HEADER.size
        windows: List[bytes] = []
        running_crc = 0
        while offset < len(data):
            if offset + _WINDOW_HEADER.size > len(data):
                raise CodecError("truncated window header in compressed image")
            length, window_crc = _WINDOW_HEADER.unpack_from(data, offset)
            offset += _WINDOW_HEADER.size
            if offset + length > len(data):
                raise CodecError("truncated window payload in compressed image")
            window = data[offset : offset + length]
            offset += length
            if crc32(window) != window_crc:
                raise CodecError("window CRC mismatch in compressed image")
            running_crc = crc32(window, running_crc)
            windows.append(window)
        if running_crc != stored_crc:
            raise CodecError("compressed image payload CRC mismatch")
        return cls(codec_name, window_bytes, original_length, windows)


#: The card's compression window: ROM images and migration blobs are
#: compressed in windows of this many raw bytes.
COMPRESSION_WINDOW_BYTES = 1024


class WindowedCompressor:
    """Splits raw bit-stream bytes into :data:`COMPRESSION_WINDOW_BYTES`
    windows and compresses each one."""

    def __init__(self, codec: Codec) -> None:
        self.codec = codec

    def compress(self, data: bytes) -> CompressedImage:
        window_bytes = COMPRESSION_WINDOW_BYTES
        windows: List[bytes] = []
        previous: Optional[bytes] = None
        for start in range(0, len(data), window_bytes):
            window = data[start : start + window_bytes]
            windows.append(self.codec.compress_window(window, previous))
            previous = window
        return CompressedImage(
            codec_name=self.codec.name,
            window_bytes=window_bytes,
            original_length=len(data),
            windows=windows,
        )


class WindowedDecompressor:
    """Streaming decompressor: yields raw windows in order.

    The decompressor keeps only the previous raw window as state, matching the
    bounded buffering of the microcontroller's configuration module.
    """

    def __init__(self, image: CompressedImage, codec: Optional[Codec] = None) -> None:
        self.image = image
        self.codec = codec if codec is not None else get_codec(image.codec_name)
        if self.codec.name != image.codec_name:
            raise CodecError(
                f"image was compressed with {image.codec_name!r} but decompressor "
                f"was given {self.codec.name!r}"
            )

    def windows(self) -> Iterator[bytes]:
        """Yield each raw window in order."""
        previous: Optional[bytes] = None
        produced = 0
        for blob in self.image.windows:
            window = self.codec.decompress_window(blob, previous)
            produced += len(window)
            previous = window
            yield window
        if produced != self.image.original_length:
            raise CodecError(
                f"windowed decompression produced {produced} bytes, "
                f"expected {self.image.original_length}"
            )

    def decompress_all(self) -> bytes:
        """Convenience: concatenate every window (tests and baselines)."""
        return b"".join(self.windows())
