"""Tests for the PCI model: bus timing, transactions, DMA jobs and the card's bus addresses."""

import pytest

from repro.core.builder import build_host_driver
from repro.core.card import WINDOW_BYTES
from repro.core.config import SMALL_CONFIG
from repro.pci import (
    DMA_SETUP_NS, READ, REGISTERS, TRANSACTION_OVERHEAD_CYCLES, WINDOW, WRITE, PciBus, transaction_ns,
)
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


class TestBusTiming:
    def test_time_scales_with_length(self):
        assert transaction_ns(4) < transaction_ns(256)
        # Arbitration 2 + address phase 1 + wait states 3 + turnaround 2.
        assert TRANSACTION_OVERHEAD_CYCLES == 8
        assert transaction_ns(0) == round(8 * 1e9 / 33e6)

    def test_bandwidth(self):
        # A long burst amortises the fixed overhead cycles: 33 MHz x 4 bytes.
        mbytes_per_s = 1_320_000 / transaction_ns(1_320_000) * 1e3
        assert mbytes_per_s == pytest.approx(132.0, rel=1e-3)


def _bus():
    return PciBus(Clock(), TraceRecorder())


def _events(bus):
    return [
        (event.action, event.start_ns, event.end_ns, event.attributes["address"], event.attributes["length"])
        for event in bus.trace.events
    ]


class TestBusAndDevice:
    def test_clock_advances_per_transaction(self):
        bus = _bus()
        bus.transfer(WRITE, WINDOW, 64)
        assert bus.clock.now == transaction_ns(64) > 0
        assert (bus.transactions_completed, bus.bytes_transferred, bus.busy_time_ns) == (
            1, 64, bus.clock.now
        )

    def test_register_write_and_read_through_bus(self):
        bus = _bus()
        bus.transfer(WRITE, REGISTERS + 0x10, 4)
        bus.transfer(READ, REGISTERS + 0x10, 4)
        one = transaction_ns(4)
        assert _events(bus) == [
            (WRITE, 0, one, REGISTERS + 0x10, 4),
            (READ, one, 2 * one, REGISTERS + 0x10, 4),
        ]

    def test_window_write_and_read(self):
        bus = _bus()
        bus.transfer(WRITE, WINDOW + 8, 7)
        bus.transfer(READ, WINDOW + 8, 7)
        assert [event[3:] for event in _events(bus)] == [(WINDOW + 8, 7), (WINDOW + 8, 7)]
        assert bus.bytes_transferred == 14

    def test_register_hook_fires(self):
        # What the card does on a COMMAND write runs once the data phases are
        # charged; the write's event spans it and is recorded after it.
        bus = _bus()
        seen = []

        def deliver(value):
            seen.append((value, bus.clock.now))
            bus.clock.advance(1_000)
            bus.trace.record("card", "work", bus.clock.now - 1_000, bus.clock.now)
            return "done"

        assert bus.transfer(WRITE, REGISTERS, 4, deliver, 7) == "done"
        one = transaction_ns(4)
        assert seen == [(7, one)]
        assert [(e.component, e.start_ns, e.end_ns) for e in bus.trace.events] == [
            ("card", one, one + 1_000),
            ("pci", 0, one + 1_000),
        ]
        assert bus.busy_time_ns == one


class TestDma:
    def test_dma_to_and_from_card(self):
        bus = _bus()
        bus.dma(WRITE, WINDOW, 2000, 256)
        bursts = -(-2000 // 256)
        assert bus.transactions_completed == bursts
        assert bus.bytes_transferred == 2000
        assert bus.clock.now == DMA_SETUP_NS + 7 * transaction_ns(256) + transaction_ns(2000 - 7 * 256)
        assert [event[3] for event in _events(bus)] == [WINDOW + offset for offset in range(0, 2000, 256)]
        bus.dma(READ, WINDOW, 2000, 256)
        assert bus.transactions_completed == 2 * bursts

    def test_dma_faster_than_pio_for_large_transfers(self):
        # DMA bursts amortise per-transaction overhead compared to 4-byte PIO.
        dma = _bus()
        dma.dma(WRITE, WINDOW, 4096, 256)
        pio = _bus()
        for offset in range(0, 4096, 4):
            pio.transfer(WRITE, WINDOW + offset, 4)
        assert dma.clock.now < pio.clock.now


class TestBridgeEnumeration:
    def test_bases_are_assigned_and_aligned(self):
        # BAR0 (4 KiB of registers) and BAR1 (the data window) are naturally
        # aligned and disjoint, and every host access lands in one of them.
        assert REGISTERS % 4096 == 0
        assert WINDOW % WINDOW_BYTES == 0
        assert REGISTERS + 4096 <= WINDOW
        driver = build_host_driver(config=SMALL_CONFIG.with_overrides(enable_trace=True))
        driver.call("crc32", bytes(200))
        addresses = [e.attributes["address"] for e in driver.coprocessor.trace.events if e.component == "pci"]
        assert addresses and all(
            REGISTERS <= a < REGISTERS + 4096 or WINDOW <= a < WINDOW + WINDOW_BYTES for a in addresses
        )
