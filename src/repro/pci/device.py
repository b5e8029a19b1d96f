"""Base class for PCI devices (cards) attached to the bus."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.pci.bus import PciDeviceProtocol
from repro.pci.config_space import BaseAddressRegister, PciConfigSpace

#: Bytes of the register file behind BAR0, and BAR0's decoded size.
REGISTER_BYTES = 256
REGISTER_BAR_SIZE = 4096


class PciFunctionInterface:
    """Register-level interface a card exposes through a BAR.

    The card maps named 32-bit registers and a data window into BAR space;
    the device dispatches memory reads/writes landing in the BAR to them.
    """

    def __init__(self, window_bytes: int = 64 * 1024) -> None:
        if window_bytes < 0:
            raise ValueError("the window size cannot be negative")
        self.window_bytes = window_bytes
        self._registers = bytearray(REGISTER_BYTES)
        self._window = bytearray(window_bytes)
        self._write_hooks: Dict[int, Callable[[int], None]] = {}

    # ------------------------------------------------------------ registers
    def read_register(self, offset: int) -> int:
        self._check_register(offset)
        return int.from_bytes(self._registers[offset : offset + 4], "little")

    def write_register(self, offset: int, value: int) -> None:
        self._check_register(offset)
        self._registers[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        hook = self._write_hooks.get(offset)
        if hook is not None:
            hook(value & 0xFFFFFFFF)

    def on_register_write(self, offset: int, hook: Callable[[int], None]) -> None:
        """Register a side-effect hook fired when the host writes *offset*."""
        self._check_register(offset)
        self._write_hooks[offset] = hook

    def _check_register(self, offset: int) -> None:
        if offset % 4 != 0 or not 0 <= offset < REGISTER_BYTES:
            raise ValueError(f"register offset 0x{offset:x} is invalid")

    # --------------------------------------------------------------- window
    def read_window(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.window_bytes:
            raise ValueError("window read out of range")
        return bytes(self._window[offset : offset + length])

    def write_window(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > self.window_bytes:
            raise ValueError("window write out of range")
        self._window[offset : offset + len(payload)] = payload


class PciDevice(PciDeviceProtocol):
    """A PCI card: config space + a register/data interface behind BAR0/BAR1."""

    def __init__(
        self,
        name: str,
        interface: Optional[PciFunctionInterface] = None,
        window_bar_size: int = 64 * 1024,
    ) -> None:
        self.name = name
        self.interface = interface if interface is not None else PciFunctionInterface(
            window_bytes=window_bar_size
        )
        self.config_space = PciConfigSpace(
            bars=[
                BaseAddressRegister(0, REGISTER_BAR_SIZE),
                BaseAddressRegister(1, window_bar_size),
            ]
        )

    # ----------------------------------------------------------- bus facing
    def claims(self, address: int) -> bool:
        return self.config_space.decode(address) is not None

    def memory_read(self, address: int, length: int) -> bytes:
        bar = self._decode(address)
        offset = bar.offset_of(address)
        if bar.index == 0:
            value = self.interface.read_register(offset)
            return value.to_bytes(4, "little")[:length]
        return self.interface.read_window(offset, length)

    def memory_write(self, address: int, payload: bytes) -> None:
        bar = self._decode(address)
        offset = bar.offset_of(address)
        if bar.index == 0:
            value = int.from_bytes(payload[:4].ljust(4, b"\x00"), "little")
            self.interface.write_register(offset, value)
        else:
            self.interface.write_window(offset, payload)

    def _decode(self, address: int) -> BaseAddressRegister:
        bar = self.config_space.decode(address)
        if bar is None:
            raise ValueError(f"{self.name} does not claim address 0x{address:08x}")
        return bar
