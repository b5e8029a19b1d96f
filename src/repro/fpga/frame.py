"""Frames and frame regions.

A :class:`Frame` is one frame address worth of configuration SRAM: it stores
the canonical byte image of the CLBs (and their switch boxes) it covers, and
nothing else.  The CLB/LUT object model (:mod:`repro.fpga.clb`) defines the
layout of those bytes; :func:`decode_clbs` gives a decoded copy for
inspection, and the bit-stream generator renders through the same objects
into bytes.  A :class:`FrameRegion` is the set of frames assigned to one
loaded function — the paper explicitly allows the set to be non-contiguous.

Each frame also carries a stored CRC-32 *check word* over its configuration
bytes, refreshed on every legitimate write (:meth:`Frame.load_config_bytes`,
:meth:`Frame.clear`).  A single-event upset injected through
:meth:`Frame.inject_upset` deliberately bypasses the check word, so a
readback scrubber (:mod:`repro.faults`) can detect the corruption by
recomputing the CRC — exactly the frame-ECC/readback-scrub story of real
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
    return [
        ConfigurableLogicBlock(
            geometry.luts_per_clb, geometry.lut_inputs, geometry.switch_bytes_per_clb
        )
        for _ in range(geometry.clbs_per_frame)
    ]


def encode_clbs(clbs: Sequence[ConfigurableLogicBlock]) -> bytes:
    """Serialise one frame's CLBs: the authoritative frame byte layout."""
    return b"".join(clb.to_config_bytes() for clb in clbs)


def decode_clbs(geometry: FabricGeometry, data: bytes) -> List[ConfigurableLogicBlock]:
    """Inverse of :func:`encode_clbs` (padding bits are dropped by the parser)."""
    clbs = blank_clbs(geometry)
    per_clb = geometry.clb_config_bytes
    for index, clb in enumerate(clbs):
        clb.load_config_bytes(data[index * per_clb : (index + 1) * per_clb])
    return clbs


@lru_cache(maxsize=64)
def _frame_layout(geometry: FabricGeometry) -> Tuple[int, bytes, int]:
    """Per-geometry constants: (padding mask, erased image, erased check word).

    The mask is what the CLB parser keeps of an all-ones frame, as a
    little-endian integer: it clears LUT bits above ``2**lut_inputs`` and FF
    bits above ``luts_per_clb``, so ``value & mask`` is the codec round trip.
    """
    length = geometry.frame_config_bytes
    kept = encode_clbs(decode_clbs(geometry, b"\xff" * length))
    erased = bytes(length)
    return int.from_bytes(kept, "little"), erased, zlib.crc32(erased)


class Frame:
    """One reconfiguration quantum: a column-aligned group of CLBs."""

    def __init__(self, geometry: FabricGeometry, address: FrameAddress) -> None:
        geometry.validate(address)
        self.geometry = geometry
        self.address = address
        self.config_byte_length = geometry.frame_config_bytes
        self._mask, self._erased, self._erased_crc = _frame_layout(geometry)
        # The canonical byte image: the single source of truth.
        self._data = self._erased
        #: CRC-32 check word over the frame's configuration bytes as written.
        #: Updated only on legitimate writes — never by inject_upset — so a
        #: scrubber can detect corruption by recomputing the CRC on readback.
        self.stored_crc = self._erased_crc

    def clear(self) -> None:
        """Erase the frame (the all-zero configuration)."""
        self._data = self._erased
        self.stored_crc = self._erased_crc

    @property
    def is_clear(self) -> bool:
        return self._data == self._erased

    def to_config_bytes(self) -> bytes:
        """Configuration readback: the canonical byte image."""
        return self._data

    def load_config_bytes(self, data: bytes) -> bool:
        """Store a frame-sized slice of configuration data; True when the
        write was canonical (its readback is *data* and matches the check
        word)."""
        expected = self.config_byte_length
        if len(data) != expected:
            raise ValueError(
                f"frame {self.address} expects {expected} config bytes, got {len(data)}"
            )
        # The check word covers the bytes as written.  Canonical payloads
        # (everything the bit-stream generator renders) round-trip exactly;
        # a non-canonical write reads back differently and is treated as
        # corrupt by the scrubber, which then restores the canonical golden
        # image — the conservative direction.
        self.stored_crc = zlib.crc32(data)
        value = int.from_bytes(data, "little")
        canonical = value & self._mask
        if canonical == value:
            self._data = bytes(data)
            return True
        self._data = canonical.to_bytes(expected, "little")
        return False

    # ------------------------------------------------------------ fault model
    @property
    def crc_ok(self) -> bool:
        """Does the live configuration still match its stored check word?

        Hashes the readback on every call: only the configuration memory's
        ``suspect`` frames are asked, by the scrubber and the hazard detector.
        """
        return zlib.crc32(self._data) == self.stored_crc

    def inject_upset(self, bit_index: int, bits: int = 1) -> bool:
        """Flip *bits* consecutive configuration bits starting at *bit_index*.

        Models a single-event upset (``bits=1``) or a multi-bit burst.  The
        stored check word is deliberately left untouched: detection is the
        scrubber's job.  Bit positions wrap within the frame.  Returns True
        when the canonical readback actually changed — flips landing in
        padding bits are masked, exactly like upsets in unused configuration
        cells of a real device.
        """
        if bits <= 0:
            raise ValueError("an upset flips at least one bit")
        total_bits = self.config_byte_length * 8
        before = self._data
        value = int.from_bytes(before, "little")
        for offset in range(bits):
            value ^= 1 << ((bit_index + offset) % total_bits)
        after = (value & self._mask).to_bytes(self.config_byte_length, "little")
        self._data = after
        return after != before

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame({self.address}, {'clear' if self.is_clear else 'configured'})"


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

    def __contains__(self, address: FrameAddress) -> bool:
        return address in self.addresses


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

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.by_address.values())

    def __len__(self) -> int:
        return len(self.by_address)

    def region(self, region: FrameRegion) -> List[Frame]:
        """The frame objects of a region, in region order."""
        return [self[address] for address in region]
