"""Configurable logic blocks and switch boxes.

A CLB bundles a small number of LUT/flip-flop pairs; a switch box holds the
programmable routing state associated with a CLB position.  Their
``to_config_bytes`` / ``from_config_bytes`` methods define the authoritative
layout of the per-frame configuration data that bit-streams carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.fpga.lut import LookUpTable


@dataclass
class SwitchBox:
    """Programmable routing state attributed to one CLB position.

    The routing graph itself is not modelled (placement in this reproduction
    is frame-granular), but the switch bytes are part of the configuration
    image so compression and reconfiguration-latency experiments see a
    realistic frame payload.
    """

    num_bytes: int
    state: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("switch box size cannot be negative")
        if not self.state:
            self.state = bytearray(self.num_bytes)
        elif len(self.state) != self.num_bytes:
            raise ValueError("switch box state does not match its declared size")

    def clear(self) -> None:
        self.state = bytearray(self.num_bytes)

    def to_config_bytes(self) -> bytes:
        return bytes(self.state)

    def load_config_bytes(self, data: bytes) -> None:
        if len(data) != self.num_bytes:
            raise ValueError(
                f"switch box expects {self.num_bytes} config bytes, got {len(data)}"
            )
        self.state = bytearray(data)


#: Shared all-zero LUTs keyed by input width.  LookUpTable instances are
#: immutable (callers replace, never mutate, the objects), so every erased
#: LUT position can point at the same object instead of allocating one table
#: per slot on each clear.
_ZERO_LUTS: dict = {}


def _zero_lut(lut_inputs: int) -> LookUpTable:
    lut = _ZERO_LUTS.get(lut_inputs)
    if lut is None:
        lut = LookUpTable.constant(lut_inputs, False)
        _ZERO_LUTS[lut_inputs] = lut
    return lut


class ConfigurableLogicBlock:
    """A CLB: ``luts_per_clb`` LUT/FF pairs plus an attached switch box."""

    def __init__(self, luts_per_clb: int, lut_inputs: int, switch_bytes: int) -> None:
        if luts_per_clb <= 0:
            raise ValueError("a CLB needs at least one LUT")
        self.lut_inputs = lut_inputs
        self.luts: List[LookUpTable] = [_zero_lut(lut_inputs)] * luts_per_clb
        self.ff_init: List[bool] = [False] * luts_per_clb
        self.switch_box = SwitchBox(switch_bytes)

    @property
    def lut_count(self) -> int:
        return len(self.luts)

    def clear(self) -> None:
        """Return the CLB to its erased (all-zero) configuration."""
        self.luts = [_zero_lut(self.lut_inputs)] * len(self.luts)
        self.ff_init = [False] * len(self.luts)
        self.switch_box.clear()

    # --------------------------------------------------------- configuration
    def config_byte_length(self) -> int:
        lut_bytes = sum(max(1, lut.size // 8) for lut in self.luts)
        ff_bytes = max(1, len(self.luts) // 8)
        return lut_bytes + ff_bytes + self.switch_box.num_bytes

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
        ff_bytes = ff_value.to_bytes(max(1, len(self.luts) // 8), "little")
        parts.append(ff_bytes)
        parts.append(self.switch_box.to_config_bytes())
        return b"".join(parts)

    def load_config_bytes(self, data: bytes) -> None:
        """Inverse of :meth:`to_config_bytes`."""
        expected = self.config_byte_length()
        if len(data) != expected:
            raise ValueError(f"CLB expects {expected} config bytes, got {len(data)}")
        offset = 0
        new_luts = []
        for lut in self.luts:
            width = max(1, lut.size // 8)
            new_luts.append(LookUpTable.from_bytes(lut.inputs, data[offset : offset + width]))
            offset += width
        self.luts = new_luts
        ff_width = max(1, len(self.luts) // 8)
        ff_value = int.from_bytes(data[offset : offset + ff_width], "little")
        self.ff_init = [(ff_value >> index) & 1 == 1 for index in range(len(self.luts))]
        offset += ff_width
        self.switch_box.load_config_bytes(data[offset:])

    def __repr__(self) -> str:  # pragma: no cover
        used = sum(1 for lut in self.luts if lut.as_integer() != 0)
        return f"CLB({used}/{len(self.luts)} LUTs in use)"
