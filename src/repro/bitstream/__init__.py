"""Configuration bit-stream format and compression.

The ROM stores *compressed* configuration bit-streams; the microcontroller's
configuration module decompresses them *window by window* and feeds the FPGA
configuration port.  This package provides:

* the packetised bit-stream container format (:mod:`repro.bitstream.format`),
* a table-driven CRC-32 used for bit-stream integrity (:mod:`repro.bitstream.crc`),
* a suite of compression codecs (:mod:`repro.bitstream.codecs`) including the
  previous-window LZ77 that answers the paper's call for codecs exploiting
  CLB symmetry,
* the windowed streaming compressor/decompressor (:mod:`repro.bitstream.window`).
"""

from repro.bitstream.crc import crc32
from repro.bitstream.format import (
    Bitstream,
    BitstreamHeader,
    FrameDataPacket,
    PacketType,
    build_bitstream,
    parse_bitstream,
)
from repro.bitstream.codecs import (
    Codec,
    CodecError,
    NullCodec,
    RunLengthCodec,
    LZ77Codec,
    ContextLZ77Codec,
    HuffmanCodec,
    GolombRiceCodec,
    FrameDifferentialCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.bitstream.window import (
    CompressedImage,
    WindowedCompressor,
    WindowedDecompressor,
)

__all__ = [
    "crc32",
    "Bitstream",
    "BitstreamHeader",
    "FrameDataPacket",
    "PacketType",
    "build_bitstream",
    "parse_bitstream",
    "Codec",
    "CodecError",
    "NullCodec",
    "RunLengthCodec",
    "LZ77Codec",
    "ContextLZ77Codec",
    "HuffmanCodec",
    "GolombRiceCodec",
    "FrameDifferentialCodec",
    "available_codecs",
    "get_codec",
    "register_codec",
    "CompressedImage",
    "WindowedCompressor",
    "WindowedDecompressor",
]
