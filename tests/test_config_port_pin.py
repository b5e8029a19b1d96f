"""Pins of the configuration port's arithmetic, its failure paths and frame
addressing.

A transfer's port time is the per-frame write times plus the closing CRC
check, its CRC is the CRC of the payloads chained frame by frame, and a
transfer that fails leaves the configuration memory exactly as listed below.
The per-frame forms here are the oracle for a port that works per transfer.
"""

import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.format import build_bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.config_port import CONFIG_CLOCK_HZ, CRC_CHECK_CYCLES_PER_FRAME, ConfigurationPort
from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import DEFAULT_GEOMETRY, FabricGeometry, FrameAddress
from repro.sim.clock import Clock, ClockDomain

#: Eight frames of four CLBs.
GEOMETRY = FabricGeometry(columns=2, rows=16, clb_rows_per_frame=4)


def _port(geometry=GEOMETRY):
    memory = ConfigurationMemory(geometry)
    clock = Clock()
    return ConfigurationPort(memory, clock), memory, clock


def per_frame_transfer_ns(port, payloads):
    """The seed's port time: each frame's write rounded on its own, then the
    closing CRC check."""
    writes = sum(port.write_time_ns(len(payload)) for payload in payloads)
    return writes + port.domain.cycles_to_ns(CRC_CHECK_CYCLES_PER_FRAME * max(1, len(payloads)))


def chained_crc(payloads):
    """The seed's transfer CRC: one running CRC-32 updated frame by frame."""
    value = 0
    for payload in payloads:
        value = zlib.crc32(payload, value)
    return value


_lengths = st.one_of(
    # Mixed lengths: relocation and scrub pass readback payloads.
    st.lists(st.integers(min_value=0, max_value=2_000), max_size=24),
    # Equal lengths: every frame of one geometry.
    st.builds(lambda length, count: [length] * count, st.integers(0, 2_000), st.integers(0, 130)),
)


class TestTransferArithmetic:
    @given(_lengths, st.sampled_from([CONFIG_CLOCK_HZ, 33e6, 66e6, 30e6, 7e6]))
    @settings(max_examples=200, deadline=None)
    def test_transfer_time_is_the_per_frame_sum(self, lengths, clock_hz):
        port, _, _ = _port()
        # At 50 MHz a cycle is a whole 20 ns, so no rounding order could
        # differ; the other clocks make each frame's rounding count.
        port.domain = ClockDomain("config-port", clock_hz)
        payloads = [bytes(length) for length in lengths]
        assert port.transfer_time_ns(payloads) == per_frame_transfer_ns(port, payloads)

    def test_transfer_time_of_every_shipped_frame_count(self):
        port, _, _ = _port()
        for geometry in (GEOMETRY, DEFAULT_GEOMETRY):
            payload = bytes(geometry.frame_config_bytes)
            for count in range(geometry.frame_count + 1):
                payloads = [payload] * count
                assert port.transfer_time_ns(payloads) == per_frame_transfer_ns(port, payloads)

    @given(st.lists(st.binary(max_size=300), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_chained_crc_is_the_crc_of_the_joined_payloads(self, payloads):
        assert chained_crc(payloads) == zlib.crc32(b"".join(payloads))

    @given(
        st.integers(1, 64).flatmap(
            lambda length: st.lists(st.binary(min_size=length, max_size=length), min_size=1, max_size=12)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bitstream_payload_crc_is_the_chained_crc(self, payloads):
        bitstream = build_bitstream(1, "f", payloads, 4, 4)
        assert bitstream.payload_crc == chained_crc(payloads)


def _snapshot(memory):
    """Every frame's readback, stored check word and owner, in raster order."""
    return {
        str(address): (
            memory.read_frame(address),
            memory.frames[address].stored_crc,
            memory.owner_of(address),
        )
        for address in GEOMETRY.all_frames()
    }


def _erased():
    length = GEOMETRY.frame_config_bytes
    return bytes(length), zlib.crc32(bytes(length)), None


def _pattern():
    """A payload whose first CLB's FF byte differs from every other byte."""
    data = bytearray(b"\x5a" * GEOMETRY.frame_config_bytes)
    data[16] = 0xF3
    return bytes(data)


def _fill(value):
    return bytes([value]) * GEOMETRY.frame_config_bytes


def _populated():
    """A port and memory where aes holds frames 3 and 4 and des holds frame
    6; the rest are erased."""
    port, memory, clock = _port()
    frames = GEOMETRY.all_frames()
    port.configure("aes", [frames[3]], [_fill(0x3)], zlib.crc32(_fill(0x3)))
    port.configure("aes", [frames[4]], [_pattern()], zlib.crc32(_pattern()))
    port.configure("des", [frames[6]], [_fill(0x6)], zlib.crc32(_fill(0x6)))
    return port, memory, clock


class TestFailedTransfers:
    def test_the_populated_memory(self):
        _, memory, _ = _populated()
        snapshot = _snapshot(memory)
        assert snapshot["F[1,0]"] == (_pattern(), zlib.crc32(_pattern()), "aes")
        assert snapshot["F[0,3]"] == (_fill(0x3), zlib.crc32(_fill(0x3)), "aes")
        assert snapshot["F[1,2]"] == (_fill(0x6), zlib.crc32(_fill(0x6)), "des")
        erased = [name for name, state in snapshot.items() if state == _erased()]
        assert erased == ["F[0,0]", "F[0,1]", "F[0,2]", "F[1,1]", "F[1,3]"]

    def test_a_foreign_owner_mid_region_clears_exactly_the_frames_written(self):
        port, memory, clock = _populated()
        before = _snapshot(memory)
        started = clock.now
        frames = GEOMETRY.all_frames()
        addresses = [frames[2], frames[3], frames[5], frames[6], frames[7]]
        payloads = [_fill(0xA + index) for index in range(5)]
        with pytest.raises(FrameCollisionError) as raised:
            port.configure("aes", addresses, payloads, chained_crc(payloads))
        assert (raised.value.frames, raised.value.owner) == ((frames[6],), "des")
        after = _snapshot(memory)
        # Frames 2, 3 and 5 were written, then erased: aes loses frame 3's
        # old configuration too.  Frame 6 (des) and frame 7 (never reached)
        # are untouched, and so is aes's frame 4 outside the region.
        expected = dict(before)
        for name in ("F[0,2]", "F[0,3]", "F[1,1]"):
            expected[name] = _erased()
        assert after == expected
        assert clock.now - started == port.transfer_time_ns(payloads)
        assert port.stats.frames_written == 3 + 5

    def test_a_crc_mismatch_clears_every_frame_written(self):
        port, memory, clock = _populated()
        before = _snapshot(memory)
        started = clock.now
        frames = GEOMETRY.all_frames()
        addresses = [frames[2], frames[3], frames[4], frames[5]]
        payloads = [_fill(0x1), _fill(0x2), _pattern(), _fill(0x4)]
        with pytest.raises(ConfigurationError) as raised:
            port.configure("aes", addresses, payloads, chained_crc(payloads) ^ 1)
        assert not isinstance(raised.value, FrameCollisionError)
        assert "CRC mismatch" in str(raised.value)
        expected = dict(before)
        for name in ("F[0,2]", "F[0,3]", "F[1,0]", "F[1,1]"):
            expected[name] = _erased()
        assert _snapshot(memory) == expected
        assert clock.now - started == port.transfer_time_ns(payloads)

    def test_a_good_transfer_over_its_own_frames(self):
        port, memory, _ = _populated()
        before = _snapshot(memory)
        frames = GEOMETRY.all_frames()
        addresses = [frames[4], frames[3], frames[0]]
        payloads = [_fill(0x7), _pattern(), _fill(0x9)]
        port.configure("aes", addresses, payloads, chained_crc(payloads))
        after = _snapshot(memory)
        assert after["F[1,0]"] == (_fill(0x7), zlib.crc32(_fill(0x7)), "aes")
        assert after["F[0,3]"] == (_pattern(), zlib.crc32(_pattern()), "aes")
        assert after["F[0,0]"] == (_fill(0x9), zlib.crc32(_fill(0x9)), "aes")
        unchanged = {name for name in before if name not in ("F[1,0]", "F[0,3]", "F[0,0]")}
        assert {name: after[name] for name in unchanged} == {name: before[name] for name in unchanged}


class TestAddressErrors:
    FOREIGN = FrameAddress(9, 0)

    def test_the_port_names_a_missing_frame_and_keeps_what_it_wrote(self):
        port, memory, _ = _port()
        payload = _fill(0x1)
        with pytest.raises(IndexError, match=r"^F\[9,0\] does not exist on this fabric$"):
            port.configure("aes", [GEOMETRY.all_frames()[0], self.FOREIGN], [payload] * 2, 0)
        assert memory.owner_of(GEOMETRY.all_frames()[0]) == "aes"
        assert memory.read_frame(GEOMETRY.all_frames()[0]) == payload

    def test_claim_and_owner_of_name_the_fabric(self):
        _, memory, _ = _port()
        message = r"^F\[9,0\] does not exist on a 2x16 fabric$"
        with pytest.raises(IndexError, match=message):
            memory.owner_of(self.FOREIGN)
        with pytest.raises(IndexError, match=message):
            memory.claim(FrameRegion((GEOMETRY.all_frames()[0], self.FOREIGN)), "aes")
        assert memory.owner_of(GEOMETRY.all_frames()[0]) is None

    def test_clear_region_names_a_missing_frame(self):
        _, memory, _ = _port()
        with pytest.raises(IndexError, match=r"^F\[9,0\] does not exist on this fabric$"):
            memory.clear_region(FrameRegion((self.FOREIGN,)))


class TestFrameAddress:
    def test_text_forms(self):
        address = FrameAddress(3, 1)
        assert str(address) == "F[3,1]"
        assert repr(address) == "FrameAddress(column=3, tile=1)"
        assert f"{address}" == "F[3,1]"
        assert str([address]) == "[FrameAddress(column=3, tile=1)]"
        assert (address.column, address.tile) == (3, 1)

    def test_equality_hash_and_order(self):
        assert FrameAddress(1, 2) == FrameAddress(1, 2)
        assert FrameAddress(1, 2) != FrameAddress(2, 1)
        # The hash is the (column, tile) tuple's, so every set and dict of
        # addresses iterates in the same order as before.
        assert hash(FrameAddress(1, 2)) == hash((1, 2))
        assert len({FrameAddress(1, 2), FrameAddress(1, 2), FrameAddress(2, 1)}) == 2
        assert FrameAddress(0, 7) < FrameAddress(1, 0) < FrameAddress(1, 1)
        addresses = DEFAULT_GEOMETRY.all_frames()
        assert sorted(reversed(addresses)) == addresses
        assert pickle.loads(pickle.dumps(FrameAddress(4, 5))) == FrameAddress(4, 5)

    def test_raster_order_and_flat_index_round_trip(self):
        for geometry in (GEOMETRY, DEFAULT_GEOMETRY):
            tiles = geometry.tiles_per_column
            addresses = geometry.all_frames()
            assert addresses == [
                FrameAddress(column, tile)
                for column in range(geometry.columns)
                for tile in range(tiles)
            ]
            for index, address in enumerate(addresses):
                assert address.column * tiles + address.tile == index
            # Address order is flat-index order: the defragmenter's packed
            # targets and the placer's runs rely on it.
            assert sorted(addresses, key=lambda a: a.column * tiles + a.tile) == sorted(addresses)
