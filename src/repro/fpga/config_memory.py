"""Configuration memory: the frame-addressable state behind the config port.

The configuration memory owns the :class:`~repro.fpga.frame.FrameArray` and
provides frame-granular write/readback with ownership bookkeeping so partial
reconfiguration of one region never disturbs another.

Ownership is one map, frame address -> owning function, in raster order.
The ownership queries (``unowned_frames``, ``configured_frames``, ``owners``,
``utilisation``) scan it: a shipped fabric has 64 to 128 frames.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import Frame, FrameArray, FrameRegion
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

    # ------------------------------------------------------------ ownership
    def owner_of(self, address: FrameAddress) -> Optional[str]:
        """Function currently owning *address*, or ``None`` when free."""
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
        for address in region:
            self.geometry.validate(address)
            self._owners[address] = None

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
    def write_frame(self, address: FrameAddress, data: bytes, owner: Optional[str] = None) -> Frame:
        """Write one frame's configuration bytes.

        When *owner* is given the frame must be free or already owned by that
        function (this is how partial reconfiguration guarantees isolation).
        """
        frame = self.frames[address]
        current = self._owners[address]
        if owner is not None and current is not None and current != owner:
            raise FrameCollisionError([address], current)
        frame.load_config_bytes(data)
        if owner is not None:
            self._owners[address] = owner
        return frame

    def clear_frame(self, address: FrameAddress) -> None:
        """Erase one frame and drop its ownership."""
        self.frames[address].clear()
        self._owners[address] = None

    def clear_region(self, region: FrameRegion) -> None:
        for address in region:
            self.clear_frame(address)

    # ------------------------------------------------------------ fault model
    def corrupt_bit(self, address: FrameAddress, bit_index: int, bits: int = 1) -> bool:
        """Flip configuration bits in one frame without updating its check word.

        The entry point the fault injector uses to model radiation-induced
        upsets in live configuration memory.  Returns True when the frame's
        canonical readback actually changed (see :meth:`Frame.inject_upset`).
        """
        self.geometry.validate(address)
        return self.frames[address].inject_upset(bit_index, bits=bits)

    def frame_crc_ok(self, address: FrameAddress) -> bool:
        """Does *address*'s readback still match its stored CRC check word?"""
        return self.frames[address].crc_ok

    # ------------------------------------------------------------- readback
    def read_frame(self, address: FrameAddress) -> bytes:
        """Configuration readback of a single frame."""
        return self.frames[address].to_config_bytes()

    def read_region(self, region: FrameRegion) -> List[bytes]:
        return [self.read_frame(address) for address in region]

    # ------------------------------------------------------------ statistics
    def utilisation(self) -> float:
        """Fraction of frames currently owned by some function."""
        owned = sum(owner is not None for owner in self._owners.values())
        return owned / self.geometry.frame_count
