"""PCI configuration space of the co-processor card.

Only the parts the host driver actually touches are modelled: the
identification registers, the command/status word and the base address
registers (BARs) through which the card's register file and data window are
mapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class BaseAddressRegister:
    """One BAR: a window of *size_bytes* mapped at *base_address*."""

    index: int
    size_bytes: int
    base_address: int = 0

    def __post_init__(self) -> None:
        if self.index < 0 or self.index > 5:
            raise ValueError("PCI defines BARs 0..5")
        if self.size_bytes <= 0 or (self.size_bytes & (self.size_bytes - 1)) != 0:
            raise ValueError("BAR sizes must be positive powers of two")

    def contains(self, address: int) -> bool:
        return self.base_address <= address < self.base_address + self.size_bytes

    def offset_of(self, address: int) -> int:
        if not self.contains(address):
            raise ValueError(f"address 0x{address:x} is outside BAR{self.index}")
        return address - self.base_address


class PciConfigSpace:
    """The 256-byte configuration header of one PCI function."""

    VENDOR_ID = 0x10EE  # matches the Xilinx vendor id, as a nod to the PoC platform
    DEVICE_ID = 0xA91E  # "AGILE"

    COMMAND_IO_ENABLE = 0x0001
    COMMAND_MEMORY_ENABLE = 0x0002
    COMMAND_BUS_MASTER = 0x0004

    def __init__(self, bars: Optional[List[BaseAddressRegister]] = None) -> None:
        self.command = 0
        self.status = 0
        self.bars: Dict[int, BaseAddressRegister] = {}
        for bar in bars or []:
            self.add_bar(bar)

    def add_bar(self, bar: BaseAddressRegister) -> None:
        if bar.index in self.bars:
            raise ValueError(f"BAR{bar.index} already defined")
        self.bars[bar.index] = bar

    # -------------------------------------------------------------- control
    def enable_memory(self) -> None:
        self.command |= self.COMMAND_MEMORY_ENABLE

    def enable_bus_master(self) -> None:
        self.command |= self.COMMAND_BUS_MASTER

    @property
    def memory_enabled(self) -> bool:
        return bool(self.command & self.COMMAND_MEMORY_ENABLE)

    def assign_bar(self, index: int, base_address: int) -> None:
        """What the host's enumeration code does: program a BAR base address."""
        if index not in self.bars:
            raise KeyError(f"card has no BAR{index}")
        if base_address % self.bars[index].size_bytes != 0:
            raise ValueError("BAR base addresses must be naturally aligned")
        self.bars[index].base_address = base_address

    def decode(self, address: int) -> Optional[BaseAddressRegister]:
        """Return the BAR covering *address*, if the card responds to it."""
        if not self.memory_enabled:
            return None
        for bar in self.bars.values():
            if bar.contains(address):
                return bar
        return None
