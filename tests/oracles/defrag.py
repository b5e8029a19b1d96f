"""The per-frame packing plan, kept as the reference for the defragmenter's.

:meth:`repro.mcu.minios.defrag.Defragmenter._packed_targets` sorts the
replacement table by each region's least address and cuts every target out
of the geometry's raster-order frame list.  :func:`reference_packed_targets`
is the plan it replaced: a flat index computed per frame of every region, and
one raster lookup per target frame.  ``tests/test_rebalance_properties.py``
requires the same ``(entry, target)`` sequence from both on drawn tables.
"""

from __future__ import annotations

from repro.fpga.frame import FrameRegion


def reference_packed_targets(defragmenter):
    """``[(entry, target_region)]``: functions packed from frame 0 in
    ascending order of their current lowest flat index, then name."""
    geometry = defragmenter.device.geometry
    tiles = geometry.tiles_per_column
    raster = geometry.all_frames()
    entries = sorted(
        defragmenter.minios.table,
        key=lambda entry: (
            min(address.column * tiles + address.tile for address in entry.region),
            entry.name,
        ),
    )
    cursor = 0
    plan = []
    for entry in entries:
        count = len(entry.region)
        target = FrameRegion.from_addresses(raster[index] for index in range(cursor, cursor + count))
        cursor += count
        plan.append((entry, target))
    return plan
