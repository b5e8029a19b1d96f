"""The frame byte layout read back into CLB objects: the decoder no model path needs.

A frame is ``clbs_per_frame`` CLB images back to back.  One CLB image is its
eight 4-input LUT truth tables (two little-endian bytes each, bit *i* = the
output for input vector *i*), one byte of flip-flop init bits (bit *i* = LUT
*i*'s flip-flop) and sixteen switch-box bytes: 33 bytes, every bit of them a
configuration cell.  ``repro.fpga.frame.encode_clbs`` writes this layout;
the functions below read it back.  The model never decodes a frame (a frame
is its bytes), so the decoder lives here, where tests use it to inspect a
rendered frame and to check that every frame image is some CLB image.
"""

from __future__ import annotations

from typing import List

from repro.fpga.clb import ConfigurableLogicBlock, SwitchBox
from repro.fpga.frame import blank_clbs
from repro.fpga.geometry import FabricGeometry
from repro.fpga.lut import LookUpTable

#: The shipped CLB's shape, stated independently of ``repro.fpga.geometry``.
LUTS = 8
LUT_INPUTS = 4
LUT_BYTES = (1 << LUT_INPUTS) // 8
FF_BYTES = 1
SWITCH_BYTES = 16
CLB_BYTES = LUTS * LUT_BYTES + FF_BYTES + SWITCH_BYTES


def decode_lut(data: bytes) -> LookUpTable:
    """The LUT whose truth table *data* holds (the inverse of ``to_bytes``)."""
    if len(data) != LUT_BYTES:
        raise ValueError(f"a LUT expects {LUT_BYTES} config bytes, got {len(data)}")
    return LookUpTable(LUT_INPUTS, int.from_bytes(data, "little"))


def load_switch_box(box: SwitchBox, data: bytes) -> None:
    """Store *data* as *box*'s routing state."""
    if len(data) != SWITCH_BYTES:
        raise ValueError(f"switch box expects {SWITCH_BYTES} config bytes, got {len(data)}")
    box.state = bytearray(data)


def load_clb(clb: ConfigurableLogicBlock, data: bytes) -> None:
    """Set *clb* to the CLB image *data* (the inverse of ``to_config_bytes``)."""
    if len(data) != CLB_BYTES:
        raise ValueError(f"CLB expects {CLB_BYTES} config bytes, got {len(data)}")
    clb.luts = [decode_lut(data[i * LUT_BYTES : (i + 1) * LUT_BYTES]) for i in range(LUTS)]
    ff_value = data[LUTS * LUT_BYTES]
    clb.ff_init = [(ff_value >> index) & 1 == 1 for index in range(LUTS)]
    load_switch_box(clb.switch_box, data[LUTS * LUT_BYTES + FF_BYTES :])


def decode_clbs(geometry: FabricGeometry, data: bytes) -> List[ConfigurableLogicBlock]:
    """A frame image as fresh CLB objects, in frame layout order (a copy:
    changing them changes no frame)."""
    clbs = blank_clbs(geometry)
    if len(data) != len(clbs) * CLB_BYTES:
        raise ValueError(f"a frame expects {len(clbs) * CLB_BYTES} config bytes, got {len(data)}")
    for index, clb in enumerate(clbs):
        load_clb(clb, data[index * CLB_BYTES : (index + 1) * CLB_BYTES])
    return clbs
