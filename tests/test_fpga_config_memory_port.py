"""Tests for the configuration memory and the configuration port."""

import re

import pytest

from repro.bitstream.crc import crc32
from repro.bitstream.format import build_bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.config_port import ConfigurationPort
from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.sim.clock import Clock


def _payload(geometry, fill=0x11):
    return bytes([fill]) * geometry.frame_config_bytes


def _write(memory, addresses, payloads, owner):
    """``write_region`` with each payload's CRC-32 as its check word."""
    return memory.write_region(addresses, payloads, [crc32(payload) for payload in payloads], owner=owner)


class TestConfigurationMemory:
    def test_write_and_read_frame(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[0]
        _write(memory, [address], [_payload(tiny_geometry)], owner="aes")
        assert memory.owner_of(address) == "aes"
        assert memory.read_frame(address) == _payload(tiny_geometry)

    def test_write_over_other_owner_rejected(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[2]
        _write(memory, [address], [_payload(tiny_geometry)], owner="aes")
        with pytest.raises(FrameCollisionError):
            _write(memory, [address], [_payload(tiny_geometry, 0x22)], owner="des")

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
        _write(memory, [address], [_payload(tiny_geometry)], owner="aes")
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
        _write(memory, [tiny_geometry.all_frames()[0]], [_payload(tiny_geometry)], owner="aes")
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
        _write(memory, [tiny_geometry.all_frames()[4]], [_payload(tiny_geometry)], owner="des")
        payloads = [_payload(tiny_geometry)] * 2
        with pytest.raises(FrameCollisionError):
            port.configure(
                "aes", [tiny_geometry.all_frames()[3], tiny_geometry.all_frames()[4]], payloads, 0
            )
        assert memory.owner_of(tiny_geometry.all_frames()[3]) is None
        assert memory.owner_of(tiny_geometry.all_frames()[4]) == "des"



class TestCheckWordWrites:
    """A frame stores each payload and its check word as handed over, once
    per image for a load; these are the write path's two failure cases."""

    def test_a_bytearray_changed_after_its_write_leaves_the_frame_as_written(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        address = tiny_geometry.all_frames()[3]
        payload = bytearray(_payload(tiny_geometry, 0x5A))
        _write(memory, [address], [payload], owner="aes")
        payload[0] ^= 0xFF
        frame = memory.frames[address]
        assert memory.read_frame(address) == _payload(tiny_geometry, 0x5A)
        assert frame.stored_crc == crc32(_payload(tiny_geometry, 0x5A))
        assert frame.crc_ok

    def test_a_transfer_whose_payloads_miss_the_expected_crc_clears_what_it_wrote(self, tiny_geometry):
        """Through the device, with the bit-stream's kept payload CRC wrong:
        the port writes every frame with its check word, finds the CRC of
        the joined payloads differs, erases the frames, and the device
        releases the region."""
        device = FPGADevice(tiny_geometry)
        payloads = [_payload(tiny_geometry, fill) for fill in (0x11, 0x22, 0x33)]
        bitstream = build_bitstream(7, "aes", payloads, 4, 4)
        bitstream.payload_crc ^= 1
        region = FrameRegion.from_addresses(tiny_geometry.all_frames()[2:5])
        transfer_ns = device.port.transfer_time_ns(payloads)
        with pytest.raises(ConfigurationError, match="CRC mismatch"):
            device.configure_partial(bitstream, region, None, transfer_ns)
        erased = bytes(tiny_geometry.frame_config_bytes)
        for address in tiny_geometry.all_frames():
            frame = device.memory.frames[address]
            assert (frame.to_config_bytes(), frame.stored_crc) == (erased, crc32(erased))
            assert device.memory.owner_of(address) is None
        assert not device.is_loaded("aes")
        # The transfer happened before the check failed: its time is spent.
        assert device.clock.now == transfer_ns
        assert device.port.stats.frames_written == 3

    def test_a_wrong_length_payload_is_refused_before_any_frame_is_written(self, tiny_geometry):
        memory = ConfigurationMemory(tiny_geometry)
        addresses = tiny_geometry.all_frames()[:3]
        payloads = [_payload(tiny_geometry), b"\x01\x02", _payload(tiny_geometry)]
        with pytest.raises(ValueError, match=rf"^frame {re.escape(str(addresses[1]))} expects \d+ config bytes, got 2$"):
            _write(memory, addresses, payloads, owner="aes")
        assert memory.unowned_frames() == tiny_geometry.all_frames()
        assert not any(any(memory.read_frame(address)) for address in addresses)
        # A wrong-length payload past the last address is refused too.
        with pytest.raises(ValueError, match=r"^a payload without an address has 2 bytes, not \d+$"):
            _write(memory, addresses[:1], payloads[::-1], owner="aes")
        assert memory.unowned_frames() == tiny_geometry.all_frames()
