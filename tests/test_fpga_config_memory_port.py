"""Tests for the configuration memory and the configuration port."""

import pytest

from repro.bitstream.crc import crc32
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.config_port import ConfigurationPort
from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.sim.clock import Clock


def _payload(geometry, fill=0x11):
    return bytes([fill]) * geometry.frame_config_bytes


class TestConfigurationMemory:
    def test_write_and_read_frame(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[0]
        memory.write_region([address], [_payload(tiny_geometry)], owner="aes")
        assert memory.owner_of(address) == "aes"
        assert memory.read_frame(address) == _payload(tiny_geometry)

    def test_write_over_other_owner_rejected(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[2]
        memory.write_region([address], [_payload(tiny_geometry)], owner="aes")
        with pytest.raises(FrameCollisionError):
            memory.write_region([address], [_payload(tiny_geometry, 0x22)], owner="des")

    def test_claim_and_release(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        region = FrameRegion.from_addresses([tiny_geometry.all_frames()[index] for index in (0, 1)])
        memory.claim(region, "sha1")
        assert memory.owners() == {"sha1": list(region)}
        with pytest.raises(FrameCollisionError):
            memory.claim(region, "des")
        memory.release(region, owner="sha1")
        assert memory.owners() == {}

    def test_release_with_wrong_owner_rejected(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        region = FrameRegion.from_addresses([tiny_geometry.all_frames()[0]])
        memory.claim(region, "aes")
        with pytest.raises(ConfigurationError):
            memory.release(region, owner="des")

    def test_clear_frame_erases_and_frees(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[1]
        memory.write_region([address], [_payload(tiny_geometry)], owner="aes")
        memory.clear_region([address])
        assert memory.owner_of(address) is None
        assert not any(memory.frames[address].to_config_bytes())

    def test_utilisation_and_describe(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        assert memory.unowned_frames() == tiny_geometry.all_frames()
        memory.claim(FrameRegion.from_addresses([tiny_geometry.all_frames()[0]]), "x")
        assert memory.unowned_frames() == tiny_geometry.all_frames()[1:]

    def test_readback_device(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        readback = memory.read_region(FrameRegion.from_addresses(tiny_geometry.all_frames()))
        assert len(readback) == tiny_geometry.frame_count
        assert {len(data) for data in readback} == {tiny_geometry.frame_config_bytes}

    def test_clear_device(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        memory.write_region([tiny_geometry.all_frames()[0]], [_payload(tiny_geometry)], owner="aes")
        memory.clear_region(FrameRegion.from_addresses(tiny_geometry.all_frames()))
        assert memory.unowned_frames() == tiny_geometry.all_frames()
        assert not any(memory.frames[tiny_geometry.all_frames()[0]].to_config_bytes())


class TestConfigurationPort:
    def _port(self, geometry, clock=None):
        memory = ConfigurationMemory(geometry)
        clock = clock or Clock()
        return ConfigurationPort(memory, clock), memory, clock

    def test_write_time_scales_with_payload(self, tiny_geometry):
        port, _, _ = self._port(tiny_geometry)
        small = port.write_time_ns(10)
        large = port.write_time_ns(1000)
        assert large > small

    def test_session_writes_frames_and_advances_clock(self, tiny_geometry):
        port, memory, clock = self._port(tiny_geometry)
        payloads = [_payload(tiny_geometry), _payload(tiny_geometry, 0x22)]
        addresses = [tiny_geometry.all_frames()[0], tiny_geometry.all_frames()[1]]
        elapsed = port.configure("aes", addresses, payloads, crc32(payloads[1], crc32(payloads[0])))
        assert elapsed == clock.now == port.transfer_time_ns(payloads) == (
            2 * port.write_time_ns(len(payloads[0])) + port.domain.cycles_to_ns(4 * 2)
        )
        assert [memory.owner_of(address) for address in addresses] == ["aes", "aes"]
        assert port.stats.frames_written == 2

    def test_crc_mismatch_rolls_back(self, tiny_geometry):
        port, memory, clock = self._port(tiny_geometry)
        payload = _payload(tiny_geometry)
        with pytest.raises(ConfigurationError):
            port.configure("aes", [tiny_geometry.all_frames()[0]], [payload], 0xDEADBEEF)
        assert memory.owner_of(tiny_geometry.all_frames()[0]) is None
        assert not any(memory.frames[tiny_geometry.all_frames()[0]].to_config_bytes())
        # The transfer happened before the check failed: its time is spent.
        assert clock.now == port.transfer_time_ns([payload])

    def test_abort_session_rolls_back(self, tiny_geometry):
        port, memory, _ = self._port(tiny_geometry)
        memory.write_region([tiny_geometry.all_frames()[4]], [_payload(tiny_geometry)], owner="des")
        payloads = [_payload(tiny_geometry)] * 2
        with pytest.raises(FrameCollisionError):
            port.configure(
                "aes", [tiny_geometry.all_frames()[3], tiny_geometry.all_frames()[4]], payloads, 0
            )
        assert memory.owner_of(tiny_geometry.all_frames()[3]) is None
        assert memory.owner_of(tiny_geometry.all_frames()[4]) == "des"

