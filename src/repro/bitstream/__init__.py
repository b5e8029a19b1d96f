"""Configuration bit-stream format and compression.

The ROM stores *compressed* configuration bit-streams; the microcontroller's
configuration module decompresses them *window by window* and feeds the FPGA
configuration port.  This package provides:

* the packetised bit-stream container format (:mod:`repro.bitstream.format`),
* a table-driven CRC-32 used for bit-stream integrity (:mod:`repro.bitstream.crc`),
* a suite of compression codecs (:mod:`repro.bitstream.codecs`) including the
  CLB-symmetry-aware codec the paper's conclusion calls for,
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
    HuffmanCodec,
    GolombRiceCodec,
    FrameDifferentialCodec,
    SymmetryAwareCodec,
    available_codecs,
    get_codec,
    register_codec,
)
# NOTE: repro.bitstream.relocate is deliberately not re-exported here: it
# imports repro.fpga (frame regions, geometries), and repro.fpga.frame in turn
# imports repro.bitstream.crc — loading it during this package's own init
# would be a circular import.  Import it as repro.bitstream.relocate.
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
    "HuffmanCodec",
    "GolombRiceCodec",
    "FrameDifferentialCodec",
    "SymmetryAwareCodec",
    "available_codecs",
    "get_codec",
    "register_codec",
    "CompressedImage",
    "WindowedCompressor",
    "WindowedDecompressor",
]
