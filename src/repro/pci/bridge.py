"""Host bridge: the host CPU's window onto the PCI bus.

The bridge performs bus enumeration (assigning BAR base addresses), exposes
programmed-I/O register access and owns the DMA engine.  The host driver in
:mod:`repro.core.host` talks exclusively through this object, mirroring how a
real driver would sit on top of the kernel's PCI layer.
"""

from __future__ import annotations

from typing import Dict, List

from repro.pci.bus import PciBus
from repro.pci.device import PciDevice
from repro.pci.dma import DmaDescriptor, DmaEngine


class HostBridge:
    """Enumerates devices and issues transactions on their behalf."""

    #: Base of the MMIO region the bridge hands out BAR addresses from.
    MMIO_BASE = 0xF000_0000

    def __init__(self, bus: PciBus, dma_burst_bytes: int = 256) -> None:
        self.bus = bus
        self.dma = DmaEngine(bus, max_burst_bytes=dma_burst_bytes)
        self._next_base = self.MMIO_BASE
        self._register_base: Dict[str, int] = {}
        self._window_base: Dict[str, int] = {}

    # ----------------------------------------------------------- enumeration
    def enumerate(self) -> List[PciDevice]:
        """Assign BAR addresses to every device on the bus and enable them."""
        devices = [device for device in self.bus.devices if isinstance(device, PciDevice)]
        for device in devices:
            for index in sorted(device.config_space.bars):
                bar = device.config_space.bars[index]
                aligned = self._align(self._next_base, bar.size_bytes)
                device.config_space.assign_bar(index, aligned)
                self._next_base = aligned + bar.size_bytes
                if index == 0:
                    self._register_base[device.name] = aligned
                elif index == 1:
                    self._window_base[device.name] = aligned
            device.config_space.enable_memory()
            device.config_space.enable_bus_master()
        return devices

    @staticmethod
    def _align(address: int, alignment: int) -> int:
        remainder = address % alignment
        return address if remainder == 0 else address + (alignment - remainder)

    def register_base(self, device_name: str) -> int:
        try:
            return self._register_base[device_name]
        except KeyError:
            raise KeyError(f"device {device_name!r} has not been enumerated") from None

    def window_base(self, device_name: str) -> int:
        try:
            return self._window_base[device_name]
        except KeyError:
            raise KeyError(f"device {device_name!r} has not been enumerated") from None

    # -------------------------------------------------------- programmed I/O
    def write_register(self, device_name: str, offset: int, value: int) -> None:
        address = self.register_base(device_name) + offset
        self.bus.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_register(self, device_name: str, offset: int) -> int:
        address = self.register_base(device_name) + offset
        return int.from_bytes(self.bus.read(address, 4), "little")

    def write_window(self, device_name: str, offset: int, payload: bytes) -> None:
        """Programmed-I/O write into the card's data window (small payloads)."""
        address = self.window_base(device_name) + offset
        self.bus.write(address, payload)

    def read_window(self, device_name: str, offset: int, length: int) -> bytes:
        address = self.window_base(device_name) + offset
        return self.bus.read(address, length)

    # ------------------------------------------------------------------ DMA
    def dma_to_card(self, device_name: str, offset: int, payload: bytes) -> None:
        """DMA a host buffer into the card's data window."""
        descriptor = DmaDescriptor(
            card_address=self.window_base(device_name) + offset,
            length=len(payload),
            to_card=True,
            host_buffer=payload,
        )
        self.dma.transfer(descriptor)

    def dma_from_card(self, device_name: str, offset: int, length: int) -> bytes:
        """DMA from the card's data window into a host buffer."""
        descriptor = DmaDescriptor(
            card_address=self.window_base(device_name) + offset,
            length=length,
            to_card=False,
        )
        return self.dma.transfer(descriptor)
