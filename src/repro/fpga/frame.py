"""Frames and frame regions.

A :class:`Frame` is one frame address worth of configuration SRAM: it stores
the byte image of the CLBs (and their switch boxes) it covers, and nothing
else.  The CLB/LUT object model (:mod:`repro.fpga.clb`) defines the layout of
those bytes, and the bit-stream generator renders through those objects into
bytes.  Every bit of the image is a configuration cell (the shipped CLB has
no padding bits), so a frame stores each write exactly as written.  A
:class:`FrameRegion` is the set of frames assigned to one loaded function —
the paper explicitly allows the set to be non-contiguous.

Each frame also carries a stored CRC-32 *check word* over its configuration
bytes.  Only the configuration memory's region loops write a frame
(:meth:`~repro.fpga.config_memory.ConfigurationMemory.write_region` stores
each payload with the check word the writer worked out for it, once per
image; ``clear_region`` rebinds the frame to the shared erased image and its
check word), so every legitimate write refreshes both.  A single-event upset
injected through :meth:`Frame.inject_upset` deliberately bypasses the check
word, so a readback scrubber (:mod:`repro.faults`) can detect the corruption
by recomputing the CRC — exactly the frame-ECC/readback-scrub story of real
configuration memories.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.fpga.clb import ConfigurableLogicBlock
from repro.fpga.geometry import FabricGeometry, FrameAddress


def blank_clbs(geometry: FabricGeometry) -> List[ConfigurableLogicBlock]:
    """The erased CLBs of one frame, in frame layout order."""
    return [ConfigurableLogicBlock() for _ in range(geometry.clbs_per_frame)]


def encode_clbs(clbs: Sequence[ConfigurableLogicBlock]) -> bytes:
    """Serialise one frame's CLBs: the authoritative frame byte layout."""
    return b"".join(clb.to_config_bytes() for clb in clbs)


@lru_cache(maxsize=64)
def erased_image(length: int) -> Tuple[bytes, int]:
    """The erased image of a *length*-byte frame and its check word."""
    erased = bytes(length)
    return erased, zlib.crc32(erased)


class Frame:
    """One reconfiguration quantum: a column-aligned group of CLBs."""

    def __init__(self, geometry: FabricGeometry, address: FrameAddress) -> None:
        geometry.validate(address)
        self.geometry = geometry
        self.address = address
        self.config_byte_length = geometry.frame_config_bytes
        #: The byte image, the single source of truth, and the CRC-32 check
        #: word over it as written.  Only the configuration memory's region
        #: loops store them, together — never inject_upset — so a scrubber
        #: can detect corruption by recomputing the CRC on readback.
        self.image, self.stored_crc = erased_image(self.config_byte_length)

    def to_config_bytes(self) -> bytes:
        """Configuration readback: the byte image."""
        return self.image

    # ------------------------------------------------------------ fault model
    @property
    def crc_ok(self) -> bool:
        """Does the live configuration still match its stored check word?

        Hashes the readback on every call: only the configuration memory's
        ``suspect`` frames are asked, by the scrubber and the hazard detector.
        """
        return zlib.crc32(self.image) == self.stored_crc

    def inject_upset(self, bit_index: int) -> None:
        """Flip the configuration bit at *bit_index* (a single-event upset).

        The stored check word is deliberately left untouched: detection is
        the scrubber's job.  Bit positions wrap within the frame.
        """
        total_bits = self.config_byte_length * 8
        value = int.from_bytes(self.image, "little") ^ (1 << (bit_index % total_bits))
        self.image = value.to_bytes(self.config_byte_length, "little")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame({self.address}, {'configured' if any(self.image) else 'clear'})"


@dataclass(frozen=True)
class FrameRegion:
    """An ordered set of frame addresses occupied by one function.

    The region remembers the order frames were assigned in, because the
    bit-stream's frame-data packets are emitted in that order.
    """

    addresses: Tuple[FrameAddress, ...]

    def __post_init__(self) -> None:
        if len(set(self.addresses)) != len(self.addresses):
            raise ValueError("frame region contains duplicate frame addresses")

    @classmethod
    def from_addresses(cls, addresses: Iterable[FrameAddress]) -> "FrameRegion":
        return cls(tuple(addresses))

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[FrameAddress]:
        return iter(self.addresses)


def no_such_frame(address: FrameAddress) -> IndexError:
    """The error for an address the fabric's frame array does not hold."""
    return IndexError(f"{address} does not exist on this fabric")


class FrameArray:
    """The full set of frames on a device, indexed by address."""

    def __init__(self, geometry: FabricGeometry) -> None:
        self.geometry = geometry
        #: Address -> frame, keyed by the geometry's own address objects in
        #: raster order; the configuration memory's region loops read it.
        self.by_address: Dict[FrameAddress, Frame] = {
            address: Frame(geometry, address) for address in geometry.all_frames()
        }

    def __getitem__(self, address: FrameAddress) -> Frame:
        try:
            return self.by_address[address]
        except KeyError:
            raise no_such_frame(address) from None

    #: Not iterable (iterate ``by_address``): Python's sequence-iteration
    #: fallback would take the ``IndexError`` of ``self[0]`` for the end and
    #: yield nothing.
    __iter__ = None
