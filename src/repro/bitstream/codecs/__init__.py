"""Compression codecs for configuration bit-streams.

Every codec implements :class:`Codec`: lossless ``compress`` / ``decompress``
over byte strings, plus window-context variants used by the streaming
(window-by-window) decompressor in the microcontroller's configuration
module.  The registry maps codec names to constructors so experiment configs
can select codecs by name.

The :class:`ContextLZ77Codec` addresses the open problem stated in the
paper's conclusion — compression "that can exploit the symmetry in the CLB
architectures of FPGAs": a function's frames repeat a few distinct CLB
images, so it lets each window's LZ77 matches reach into the previous raw
window, which the configuration module already holds.
"""

from repro.bitstream.codecs.base import Codec, CodecError, NullCodec, available_codecs, get_codec, register_codec
from repro.bitstream.codecs.rle import RunLengthCodec
from repro.bitstream.codecs.lz77 import ContextLZ77Codec, LZ77Codec
from repro.bitstream.codecs.huffman import HuffmanCodec
from repro.bitstream.codecs.golomb import GolombRiceCodec
from repro.bitstream.codecs.framediff import FrameDifferentialCodec

__all__ = [
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
]
