"""Configurable logic blocks and switch boxes.

A CLB bundles ``LUTS_PER_CLB`` LUT/flip-flop pairs; a switch box holds the
programmable routing state associated with a CLB position.  Their
``to_config_bytes`` methods define the authoritative layout of the per-frame
configuration data that bit-streams carry (the shape is stated in
:mod:`repro.fpga.geometry`).
"""

from __future__ import annotations

from typing import List

from repro.fpga.geometry import LUT_INPUTS, LUTS_PER_CLB, SWITCH_BYTES_PER_CLB
from repro.fpga.lut import LookUpTable


class SwitchBox:
    """Programmable routing state attributed to one CLB position.

    The routing graph itself is not modelled (placement in this reproduction
    is frame-granular), but the switch bytes are part of the configuration
    image so compression and reconfiguration-latency experiments see a
    realistic frame payload.
    """

    def __init__(self) -> None:
        self.state = bytearray(SWITCH_BYTES_PER_CLB)

    def clear(self) -> None:
        self.state = bytearray(SWITCH_BYTES_PER_CLB)

    def to_config_bytes(self) -> bytes:
        return bytes(self.state)


#: The erased LUT.  LookUpTable instances are immutable (callers replace,
#: never mutate, the objects), so every erased LUT position points at it
#: instead of allocating one table per slot on each clear.
_ZERO_LUT = LookUpTable.constant(LUT_INPUTS, False)


class ConfigurableLogicBlock:
    """A CLB: ``LUTS_PER_CLB`` LUT/FF pairs plus an attached switch box."""

    def __init__(self) -> None:
        self.luts: List[LookUpTable] = [_ZERO_LUT] * LUTS_PER_CLB
        self.ff_init: List[bool] = [False] * LUTS_PER_CLB
        self.switch_box = SwitchBox()

    @property
    def lut_count(self) -> int:
        return len(self.luts)

    def clear(self) -> None:
        """Return the CLB to its erased (all-zero) configuration."""
        self.luts = [_ZERO_LUT] * LUTS_PER_CLB
        self.ff_init = [False] * LUTS_PER_CLB
        self.switch_box.clear()

    # --------------------------------------------------------- configuration
    def to_config_bytes(self) -> bytes:
        """Serialise the CLB state in the frame layout order.

        Layout: LUT truth tables in order, then packed FF init bits, then the
        switch-box bytes.
        """
        parts = [lut.to_bytes() for lut in self.luts]
        ff_value = 0
        for index, bit in enumerate(self.ff_init):
            if bit:
                ff_value |= 1 << index
        parts.append(ff_value.to_bytes(LUTS_PER_CLB // 8, "little"))
        parts.append(self.switch_box.to_config_bytes())
        return b"".join(parts)

    def __repr__(self) -> str:  # pragma: no cover
        used = sum(1 for lut in self.luts if lut.as_integer() != 0)
        return f"CLB({used}/{len(self.luts)} LUTs in use)"
