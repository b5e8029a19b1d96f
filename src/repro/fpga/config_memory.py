"""Configuration memory: the frame-addressable state behind the config port.

The configuration memory owns the :class:`~repro.fpga.frame.FrameArray` and
provides region-wide write, erase and readback with ownership bookkeeping,
so partial reconfiguration of one region never disturbs another.  A write
or an erase is one loop over the region's frames: an address is valid when
the frame and owner dicts hold it (every address the geometry hands out is
one of the dicts' own key objects, so a lookup hits by identity).

Ownership is one map, frame address -> owning function, in raster order.
The ownership queries (``unowned_frames``, ``configured_frames``, ``owners``,
``utilisation``) scan it: a shipped fabric has 64 to 128 frames.

A frame's bytes change only here: a write stores each payload and the check
word its writer worked out (once per image for a configuration, from the
bit-stream), an erase rebinds the frame to the shared erased image and its
check word, and neither makes a call per frame.  So the memory also keeps
``suspect``: the frames whose readback may not match their check word.  An
upset adds its frame; a write or an erase removes it (a frame stores a write
as written, with its check word), and so does a scrub that finds it clean.
Every frame that is not ``crc_ok`` is in ``suspect``, so a scrub or a hazard
check looks at those frames alone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import FrameArray, FrameRegion, erased_image, no_such_frame
from repro.fpga.geometry import FabricGeometry, FrameAddress


class ConfigurationMemory:
    """Frame-addressable configuration state with ownership tracking."""

    def __init__(self, geometry: FabricGeometry) -> None:
        self.geometry = geometry
        self.frames = FrameArray(geometry)
        # Frame address -> owning function name (None when unowned/free).
        # The dict carries every address from construction on, in raster
        # order, so every scan of it answers in raster order.
        self._owners: Dict[FrameAddress, Optional[str]] = dict.fromkeys(geometry.all_frames())
        #: Frames whose readback may not match their check word (a superset
        #: of the frames that are not ``crc_ok``).  Mutated, never replaced.
        self.suspect: Set[FrameAddress] = set()
        #: The erased frame image and its check word, which every erased
        #: frame shares.
        self._erased = erased_image(geometry.frame_config_bytes)

    # ------------------------------------------------------------ ownership
    # An address the owner map lacks is off the fabric; geometry.validate
    # raises the error that says so.
    def owner_of(self, address: FrameAddress) -> Optional[str]:
        """Function currently owning *address*, or ``None`` when free."""
        if address not in self._owners:
            self.geometry.validate(address)
        return self._owners[address]

    def configured_frames(self) -> List[FrameAddress]:
        """Every frame currently owned by some function, in raster order.

        The fault injector's targeted process draws from this list: upsets in
        unowned (erased) frames are harmless, so an experiment stressing the
        hazard window aims at live configuration.
        """
        return [address for address, owner in self._owners.items() if owner is not None]

    def unowned_frames(self) -> List[FrameAddress]:
        """Every frame no function owns, in raster order."""
        return [address for address, owner in self._owners.items() if owner is None]

    def claim(self, region: FrameRegion, owner: str) -> None:
        """Mark every frame of *region* as owned by *owner*.

        Raises :class:`FrameCollisionError` if any frame belongs to a
        different function — the controller must release it first.  The
        region is validated in a single pass that fails fast on the first
        foreign owner, reporting every region frame that owner holds.
        """
        owners = self._owners
        conflicting_owner: Optional[str] = None
        conflicts: List[FrameAddress] = []
        for address in region:
            if address not in owners:
                self.geometry.validate(address)
            current = owners[address]
            if current is None or current == owner:
                continue
            if conflicting_owner is None:
                conflicting_owner = current
            if current == conflicting_owner:
                conflicts.append(address)
        if conflicting_owner is not None:
            raise FrameCollisionError(conflicts, conflicting_owner)
        for address in region:
            owners[address] = owner

    def release(self, region: FrameRegion, owner: Optional[str] = None) -> None:
        """Release ownership of *region* (optionally checking the owner)."""
        if owner is not None:
            for address in region:
                current = self.owner_of(address)
                if current is not None and current != owner:
                    raise ConfigurationError(
                        f"cannot release {address}: owned by {current!r}, not {owner!r}"
                    )
        owners = self._owners
        for address in region:
            if address not in owners:
                self.geometry.validate(address)
            owners[address] = None

    def owners(self) -> Dict[str, List[FrameAddress]]:
        """Map of function name -> frames it currently owns.

        Keys come in the order of each owner's lowest frame, and each owner's
        frames in raster order.
        """
        result: Dict[str, List[FrameAddress]] = {}
        for address, owner in self._owners.items():
            if owner is not None:
                result.setdefault(owner, []).append(address)
        return result

    # --------------------------------------------------------------- writes
    def write_region(
        self, addresses: Iterable[FrameAddress], payloads: Sequence[bytes], check_words: Sequence[int],
        owner: Optional[str] = None,
    ) -> List[FrameAddress]:
        """Write each payload, with its check word (its CRC-32, which the
        writer works out), into its address, in order; returns the addresses
        written.

        A payload that is not frame-sized is refused with ``ValueError``
        before any frame is written.
        When *owner* is given every frame must be free or already owned by
        that function (this is how partial reconfiguration guarantees
        isolation): the first foreign frame erases the frames this call
        wrote and raises :class:`FrameCollisionError`, leaving the frames it
        never reached untouched.  Each frame stores a copy of its payload
        (``bytes``), so a ``bytearray`` changed afterwards leaves the frame
        as written.
        """
        expected = self.geometry.frame_config_bytes
        wrong = set(map(len, payloads)) - {expected}
        if wrong:
            raise ValueError(next(
                (f"frame {address} expects {expected} config bytes, got {len(payload)}"
                 for address, payload in zip(addresses, payloads) if len(payload) != expected),
                f"a payload without an address has {min(wrong)} bytes, not {expected}",
            ))
        frames = self.frames.by_address
        owners = self._owners
        suspect = self.suspect
        written: List[FrameAddress] = []
        for address, payload, check_word in zip(addresses, payloads, check_words):
            if address not in frames:
                raise no_such_frame(address)
            current = owners[address]
            if owner is not None and current is not None and current != owner:
                self.clear_region(written)
                raise FrameCollisionError([address], current)
            frame = frames[address]
            frame.image = bytes(payload)
            frame.stored_crc = check_word
            # A fault-free memory's set is empty: a write then makes no call
            # into it.
            if suspect:
                suspect.discard(address)
            if owner is not None:
                owners[address] = owner
            written.append(address)
        return written

    def clear_region(self, addresses: Iterable[FrameAddress]) -> None:
        """Erase each frame of *addresses* (rebind it to the shared erased
        image and its check word) and drop its ownership."""
        frames = self.frames.by_address
        owners = self._owners
        suspect = self.suspect
        erased, erased_crc = self._erased
        for address in addresses:
            if address not in frames:
                raise no_such_frame(address)
            frame = frames[address]
            frame.image = erased
            frame.stored_crc = erased_crc
            owners[address] = None
            if suspect:
                suspect.discard(address)

    # ------------------------------------------------------------ fault model
    def corrupt_bit(self, address: FrameAddress, bit_index: int) -> None:
        """Flip one configuration bit in one frame without updating its check
        word, and mark the frame suspect.

        The entry point the fault injector uses to model radiation-induced
        upsets in live configuration memory (see :meth:`Frame.inject_upset`).
        """
        self.geometry.validate(address)
        self.frames[address].inject_upset(bit_index)
        self.suspect.add(address)

    def frame_crc_ok(self, address: FrameAddress) -> bool:
        """Does *address*'s readback still match its stored CRC check word?"""
        return self.frames[address].crc_ok

    # ------------------------------------------------------------- readback
    def read_frame(self, address: FrameAddress) -> bytes:
        """Configuration readback of a single frame."""
        return self.frames[address].to_config_bytes()

    def read_region(self, addresses: Iterable[FrameAddress]) -> List[bytes]:
        """Configuration readback of each frame of *addresses*, in order."""
        frames = self.frames
        return [frames[address].to_config_bytes() for address in addresses]
