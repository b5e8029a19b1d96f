"""Golden configuration images: what scrub repair restores from.

The store keeps, per frame address, the clean canonical readback captured
when the frame was last legitimately configured.  :class:`~repro.fpga.device.
FPGADevice` feeds it on every successful configuration and drops entries on
unload; frames with no entry are expected erased, so their golden image is
all zeros — which is also what repair writes back for a corrupted free frame.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.fpga.geometry import FrameAddress


class GoldenImageStore:
    """Clean per-frame configuration images, keyed by frame address."""

    def __init__(self, frame_config_bytes: int) -> None:
        if frame_config_bytes <= 0:
            raise ValueError("frames carry at least one configuration byte")
        self.frame_config_bytes = frame_config_bytes
        self._images: Dict[FrameAddress, bytes] = {}
        self._erased = bytes(frame_config_bytes)

    def capture(self, region: Iterable[FrameAddress], payloads: List[bytes]) -> None:
        """Record the clean image of every frame in *region* (region order)."""
        addresses = list(region)
        if len(addresses) != len(payloads):
            raise ValueError(
                f"capture got {len(payloads)} payloads for {len(addresses)} frames"
            )
        for address, payload in zip(addresses, payloads):
            if len(payload) != self.frame_config_bytes:
                raise ValueError(
                    f"golden image for {address} must be {self.frame_config_bytes} "
                    f"bytes, got {len(payload)}"
                )
            self._images[address] = payload

    def release(self, region: Iterable[FrameAddress]) -> None:
        """Forget the frames of *region* (they are expected erased again)."""
        for address in region:
            self._images.pop(address, None)

    def payload_for(self, address: FrameAddress) -> bytes:
        """The clean image for *address* (all zeros when never captured)."""
        return self._images.get(address, self._erased)
