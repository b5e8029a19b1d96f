"""Tests for the PCI model: config space, bus, devices, DMA and the bridge."""

import pytest

from repro.pci.bridge import HostBridge
from repro.pci.bus import PciBus, PciBusError, PciBusTiming
from repro.pci.config_space import BaseAddressRegister, PciConfigSpace
from repro.pci.device import PciDevice, PciFunctionInterface
from repro.pci.dma import DmaDescriptor, DmaEngine
from repro.pci.transaction import PciTransaction, TransactionKind
from repro.sim.clock import Clock


class TestConfigSpace:
    def test_bar_validation(self):
        with pytest.raises(ValueError):
            BaseAddressRegister(7, 4096)
        with pytest.raises(ValueError):
            BaseAddressRegister(0, 1000)  # not a power of two

    def test_bar_contains_and_offset(self):
        bar = BaseAddressRegister(0, 4096, base_address=0x1000)
        assert bar.contains(0x1000) and bar.contains(0x1FFF)
        assert not bar.contains(0x2000)
        assert bar.offset_of(0x1004) == 4
        with pytest.raises(ValueError):
            bar.offset_of(0x3000)

    def test_decode_requires_memory_enable(self):
        space = PciConfigSpace(bars=[BaseAddressRegister(0, 4096)])
        space.assign_bar(0, 0x10000)
        assert space.decode(0x10000) is None
        space.enable_memory()
        assert space.decode(0x10000).index == 0

    def test_bar_alignment_enforced(self):
        space = PciConfigSpace(bars=[BaseAddressRegister(0, 4096)])
        with pytest.raises(ValueError):
            space.assign_bar(0, 0x1001)
        with pytest.raises(KeyError):
            space.assign_bar(3, 0x1000)

    def test_duplicate_bar_rejected(self):
        space = PciConfigSpace(bars=[BaseAddressRegister(0, 4096)])
        with pytest.raises(ValueError):
            space.add_bar(BaseAddressRegister(0, 4096))


class TestTransactions:
    def test_write_payload_length_checked(self):
        with pytest.raises(ValueError):
            PciTransaction(TransactionKind.MEMORY_WRITE, 0, 8, b"abc")

    def test_direction_flags(self):
        read = PciTransaction(TransactionKind.MEMORY_READ, 0, 4)
        write = PciTransaction(TransactionKind.MEMORY_WRITE, 0, 3, b"abc")
        assert not read.is_write
        assert write.is_write

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            PciTransaction(TransactionKind.MEMORY_READ, -1, 4)


class TestBusTiming:
    def test_time_scales_with_length(self):
        timing = PciBusTiming()
        assert timing.time_ns(4) < timing.time_ns(256)
        assert timing.cycles_for(0) == timing.arbitration_cycles + timing.address_phase_cycles + timing.wait_states_per_burst + timing.turnaround_cycles

    def test_bandwidth(self):
        timing = PciBusTiming(clock_hz=33e6, bus_width_bytes=4)
        # A long burst amortises the fixed overhead cycles: 33 MHz x 4 bytes.
        mbytes_per_s = 1_320_000 / timing.time_ns(1_320_000) * 1e3
        assert mbytes_per_s == pytest.approx(132.0, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PciBusTiming(clock_hz=0)
        with pytest.raises(ValueError):
            PciBusTiming(bus_width_bytes=0)


def _system(window_bytes=4096):
    clock = Clock()
    bus = PciBus(clock=clock)
    device = PciDevice("card", window_bar_size=window_bytes)
    bus.attach(device)
    bridge = HostBridge(bus)
    bridge.enumerate()
    return clock, bus, device, bridge


class TestBusAndDevice:
    def test_master_abort_when_no_device_claims(self):
        bus = PciBus()
        with pytest.raises(PciBusError):
            bus.read(0xDEAD0000, 4)

    def test_master_abort_charges_no_bus_time(self):
        # Routing happens before the clock advances: a transaction nobody
        # claims must not consume bus time or count toward statistics.
        bus = PciBus()
        before = bus.clock.now
        with pytest.raises(PciBusError):
            bus.read(0xDEAD0000, 4)
        assert bus.clock.now == before
        assert bus.busy_time_ns == 0.0
        assert bus.transactions_completed == 0
        assert bus.bytes_transferred == 0

    def test_register_write_and_read_through_bus(self):
        _, bus, device, bridge = _system()
        bridge.write_register("card", 0x10, 0xCAFEBABE)
        assert device.interface.read_register(0x10) == 0xCAFEBABE
        assert bridge.read_register("card", 0x10) == 0xCAFEBABE

    def test_window_write_and_read(self):
        _, _, device, bridge = _system()
        bridge.write_window("card", 8, b"payload")
        assert device.interface.read_window(8, 7) == b"payload"
        assert bridge.read_window("card", 8, 7) == b"payload"

    def test_register_hook_fires(self):
        _, _, device, bridge = _system()
        seen = []
        device.interface.on_register_write(0x00, lambda value: seen.append(value))
        bridge.write_register("card", 0x00, 7)
        assert seen == [7]

    def test_clock_advances_per_transaction(self):
        clock, bus, _, bridge = _system()
        before = clock.now
        bridge.write_window("card", 0, b"\x00" * 64)
        assert clock.now > before
        assert bus.transactions_completed >= 1
        assert bus.bytes_transferred >= 64

    def test_interface_bounds_checked(self):
        interface = PciFunctionInterface(register_bytes=16, window_bytes=32)
        with pytest.raises(ValueError):
            interface.read_register(20)
        with pytest.raises(ValueError):
            interface.read_register(3)  # unaligned
        with pytest.raises(ValueError):
            interface.write_window(30, b"abcdef")

    def test_bus_utilisation(self):
        clock, bus, _, bridge = _system()
        bridge.write_window("card", 0, b"\x00" * 256)
        assert 0.0 < bus.utilisation() <= 1.0


class TestDma:
    def test_dma_to_and_from_card(self):
        _, bus, device, bridge = _system(window_bytes=8192)
        payload = bytes((index * 31) % 256 for index in range(2000))
        completion = bridge.dma_to_card("card", 0, payload)
        assert completion.transactions == -(-2000 // bridge.dma.max_burst_bytes)
        assert device.interface.read_window(0, 2000) == payload
        readback = bridge.dma_from_card("card", 0, 2000)
        assert readback.data == payload
        assert bridge.dma.bytes_moved == 4000

    def test_dma_descriptor_validation(self):
        with pytest.raises(ValueError):
            DmaDescriptor(card_address=0, length=-1, to_card=False)
        with pytest.raises(ValueError):
            DmaDescriptor(card_address=0, length=4, to_card=True, host_buffer=b"xy")

    def test_dma_engine_validation(self):
        bus = PciBus()
        with pytest.raises(ValueError):
            DmaEngine(bus, max_burst_bytes=0)
        with pytest.raises(ValueError):
            DmaEngine(bus, setup_time_ns=-1)

    def test_dma_faster_than_pio_for_large_transfers(self):
        # DMA bursts amortise per-transaction overhead compared to 4-byte PIO.
        clock_dma = Clock()
        bus_dma = PciBus(clock=clock_dma)
        device_dma = PciDevice("card", window_bar_size=65536)
        bus_dma.attach(device_dma)
        bridge_dma = HostBridge(bus_dma)
        bridge_dma.enumerate()
        payload = b"\x55" * 4096
        bridge_dma.dma_to_card("card", 0, payload)
        dma_time = clock_dma.now

        clock_pio = Clock()
        bus_pio = PciBus(clock=clock_pio)
        device_pio = PciDevice("card", window_bar_size=65536)
        bus_pio.attach(device_pio)
        bridge_pio = HostBridge(bus_pio)
        bridge_pio.enumerate()
        for offset in range(0, 4096, 4):
            bridge_pio.write_window("card", offset, payload[offset : offset + 4])
        assert dma_time < clock_pio.now


class TestBridgeEnumeration:
    def test_bases_are_assigned_and_aligned(self):
        _, _, device, bridge = _system()
        register_base = bridge.register_base("card")
        window_base = bridge.window_base("card")
        assert register_base % 4096 == 0
        assert window_base % 4096 == 0
        assert register_base != window_base
        assert device.config_space.memory_enabled

    def test_unknown_device_lookup(self):
        _, _, _, bridge = _system()
        with pytest.raises(KeyError):
            bridge.register_base("ghost")
