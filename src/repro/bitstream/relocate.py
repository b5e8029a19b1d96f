"""Frame compatibility: may a frame's payload move between two fabrics?

The bit-stream format is already *slot*-indexed (packets carry the frame's
position within the function's region, never an absolute device address), so
a captured readback image can be restored anywhere — on a different region of
the same fabric, or on a different card entirely — as long as the physical
frames are interchangeable, which :func:`compatible_fabrics` decides.

Live migration gates on it wherever both geometries are in hand — the fleet
:class:`~repro.cluster.rebalance.Rebalancer` when choosing a destination
card — because the wire format itself can only check frame *sizes*.  The
destination's mini OS then chooses the new region from its own free frame
list; the defragmenter deliberately does **not** preserve a region's shape —
compaction turns scattered regions into contiguous ones.
"""

from __future__ import annotations

from repro.fpga.geometry import FabricGeometry


def compatible_fabrics(source: FabricGeometry, target: FabricGeometry) -> bool:
    """True when a frame payload from *source* is valid on *target*.

    Frame compatibility is about the *contents* of one frame — CLBs per
    frame, LUTs per CLB, LUT width and switch-box bytes — not about the
    device's overall size: a bigger card can host a smaller card's frames.
    """
    return (
        source.clb_rows_per_frame == target.clb_rows_per_frame
        and source.luts_per_clb == target.luts_per_clb
        and source.lut_inputs == target.lut_inputs
        and source.switch_bytes_per_clb == target.switch_bytes_per_clb
    )

