"""The run-building contiguous-run search, kept as the reference for the placer's.

:meth:`repro.fpga.placer.Placer._find_contiguous_run` tests the span of each
window of *frames_needed* sorted flat indices.  :func:`reference_contiguous_run`
is the search it replaced: walk the candidates in raster order, growing a run
while each flat index is its predecessor's plus one and starting a new run
otherwise, until a run is long enough.  ``tests/test_fpga_placer_bitgen.py``
requires the same frames, or ``None``, from both on drawn free-frame sets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fpga.geometry import FrameAddress


def reference_contiguous_run(
    ordered: List[FrameAddress], frames_needed: int, tiles_per_column: int
) -> Optional[List[FrameAddress]]:
    """First run of consecutive flat indices in *ordered* (raster order)
    that is *frames_needed* long, else ``None``."""
    run: List[FrameAddress] = []
    previous_index: Optional[int] = None
    for address in ordered:
        index = address.column * tiles_per_column + address.tile
        if previous_index is not None and index == previous_index + 1:
            run.append(address)
        else:
            run = [address]
        previous_index = index
        if len(run) >= frames_needed:
            return run[:frames_needed]
    return None
