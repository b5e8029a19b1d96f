"""Single-host migration helpers the migration tests drive the device with.

No model needs them: the fleet's rebalancer moves a function through its
card queues (``cluster/orders.py``), and the defragmenter compacts regions
instead of preserving their shape — so they live with the tests that use
them.
"""

from __future__ import annotations

from typing import List

from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry, FrameAddress


class RelocationError(ValueError):
    """Raised when a region cannot be rebased onto the requested target."""


def rebase_region(
    source: FabricGeometry,
    region: FrameRegion,
    target: FabricGeometry,
    target_start: int,
) -> FrameRegion:
    """Rebase *region* so its lowest frame lands at flat index *target_start*.

    The relative flat-index offsets between the region's frames are preserved
    (a contiguous region stays contiguous, a scattered one keeps its gaps) and
    the region's *order* — which is the bit-stream's slot order — is kept, so
    payload slot *i* still belongs to the *i*-th frame of the result.

    Raises :class:`RelocationError` when the fabrics' frames differ in size
    or any rebased frame falls outside the target fabric.
    """
    if source.frame_config_bytes != target.frame_config_bytes:
        raise RelocationError(
            f"fabrics are frame-incompatible: {source.frame_config_bytes}-byte "
            f"frames vs {target.frame_config_bytes}-byte frames"
        )
    if len(region) == 0:
        raise RelocationError("cannot rebase an empty region")
    if target_start < 0:
        raise RelocationError("target start index cannot be negative")
    source_tiles = source.tiles_per_column
    indices = [address.column * source_tiles + address.tile for address in region]
    base = min(indices)
    raster = target.all_frames()
    rebased: List[FrameAddress] = []
    for index in indices:
        flat = target_start + (index - base)
        if flat >= target.frame_count:
            raise RelocationError(
                f"rebased frame index {flat} falls off a "
                f"{target.frame_count}-frame fabric"
            )
        rebased.append(raster[flat])
    return FrameRegion.from_addresses(rebased)


def migrate(source, destination, name: str) -> bytes:
    """Capture *name* on the host driver *source*, restore it on
    *destination*, release it on *source*; return the blob that moved."""
    blob = source.capture_function(name)
    destination.restore_function(name, blob)
    source.evict(name)
    return blob
