"""Configuration memory: the frame-addressable state behind the config port.

The configuration memory owns the :class:`~repro.fpga.frame.FrameArray` and
provides frame-granular write/readback with ownership bookkeeping so partial
reconfiguration of one region never disturbs another.

Ownership is indexed three ways — a per-frame owner map, a per-owner frame
set and a free set — so ``owned_frames`` / ``unowned_frames`` /
``utilisation`` answer from the index instead of scanning every frame on the
device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import Frame, FrameArray, FrameRegion
from repro.fpga.geometry import FabricGeometry, FrameAddress


class ConfigurationMemory:
    """Frame-addressable configuration state with ownership tracking."""

    def __init__(self, geometry: FabricGeometry) -> None:
        self.geometry = geometry
        self.frames = FrameArray(geometry)
        all_frames = geometry.all_frames()
        # Frame address -> owning function name (None when unowned/free).
        # The dict carries every address from construction on, so reporting
        # paths that depend on raster iteration order keep it.
        self._owners: Dict[FrameAddress, Optional[str]] = {
            address: None for address in all_frames
        }
        # Derived indexes kept in lockstep with _owners.
        self._owner_frames: Dict[str, Set[FrameAddress]] = {}
        self._free: Set[FrameAddress] = set(all_frames)
        # all_frames() is raster (flat-index) order, so the position in that
        # list doubles as a cached sort key for the address.
        self._flat_order: Dict[FrameAddress, int] = {
            address: index for index, address in enumerate(all_frames)
        }
        self.total_frame_writes = 0
        self.total_bytes_written = 0

    # ------------------------------------------------------------ ownership
    def _set_owner(self, address: FrameAddress, owner: Optional[str]) -> None:
        """Point *address* at *owner*, keeping every index in sync."""
        previous = self._owners[address]
        if previous == owner:
            return
        if previous is None:
            self._free.discard(address)
        else:
            frames = self._owner_frames[previous]
            frames.discard(address)
            if not frames:
                del self._owner_frames[previous]
        if owner is None:
            self._free.add(address)
        else:
            self._owner_frames.setdefault(owner, set()).add(address)
        self._owners[address] = owner

    def owner_of(self, address: FrameAddress) -> Optional[str]:
        """Function currently owning *address*, or ``None`` when free."""
        self.geometry.validate(address)
        return self._owners[address]

    def owned_frames(self, owner: str) -> List[FrameAddress]:
        return sorted(self._owner_frames.get(owner, ()), key=self._flat_order.__getitem__)

    def configured_frames(self) -> List[FrameAddress]:
        """Every frame currently owned by some function, in raster order.

        The fault injector's targeted process draws from this list: upsets in
        unowned (erased) frames are harmless, so an experiment stressing the
        hazard window aims at live configuration.
        """
        return sorted(
            (address for address, owner in self._owners.items() if owner is not None),
            key=self._flat_order.__getitem__,
        )

    def unowned_frames(self) -> List[FrameAddress]:
        return sorted(self._free, key=self._flat_order.__getitem__)

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
            self._set_owner(address, owner)

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
            self._set_owner(address, None)

    def owners(self) -> Dict[str, List[FrameAddress]]:
        """Map of function name -> frames it currently owns.

        Iterates the per-frame map so both the key order (owner of the lowest
        owned frame first) and the per-owner frame order (raster) match the
        original full-scan implementation byte for byte in reports.
        """
        result: Dict[str, List[FrameAddress]] = {}
        if not self._owner_frames:
            return result
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
            self._set_owner(address, owner)
        self.total_frame_writes += 1
        self.total_bytes_written += len(data)
        return frame

    def clear_frame(self, address: FrameAddress) -> None:
        """Erase one frame and drop its ownership."""
        self.frames[address].clear()
        self._set_owner(address, None)

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
        owned = self.geometry.frame_count - len(self._free)
        return owned / self.geometry.frame_count

    def describe(self) -> str:
        owned = self.owners()
        parts = [f"{name}:{len(frames)}f" for name, frames in sorted(owned.items())]
        free = self.geometry.frame_count - sum(len(frames) for frames in owned.values())
        parts.append(f"free:{free}f")
        return ", ".join(parts)
