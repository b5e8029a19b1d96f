"""Invariants of the region-level configuration-memory bookkeeping.

The ownership queries (``owners``, ``unowned_frames``, ``utilisation``) must
answer like a naive per-frame ``owner_of`` scan under any sequence of claims,
releases, writes and clears — these tests recompute the naive answers and
compare.
"""

import random

import pytest

from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.errors import ConfigurationError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import TEST_GEOMETRY


@pytest.fixture
def memory():
    return ConfigurationMemory(TEST_GEOMETRY)


def _region(indices):
    return FrameRegion.from_addresses([TEST_GEOMETRY.frame_at(i) for i in indices])


def _naive_owned(memory, owner):
    return [a for a in TEST_GEOMETRY.all_frames() if memory.owner_of(a) == owner]


def _naive_unowned(memory):
    return [a for a in TEST_GEOMETRY.all_frames() if memory.owner_of(a) is None]


class TestIndexConsistency:
    def test_random_operation_sequences_keep_index_consistent(self, memory):
        rng = random.Random(42)
        owners = ["aes", "sha1", "fir", "crc"]
        payload = bytes(TEST_GEOMETRY.frame_config_bytes)
        frame_count = TEST_GEOMETRY.frame_count
        for _ in range(300):
            op = rng.randrange(4)
            indices = rng.sample(range(frame_count), rng.randrange(1, 6))
            region = _region(indices)
            owner = rng.choice(owners)
            try:
                if op == 0:
                    memory.claim(region, owner)
                elif op == 1:
                    memory.release(region)
                elif op == 2:
                    for address in region:
                        memory.write_frame(address, payload, owner=owner)
                else:
                    memory.clear_region(region)
            except (FrameCollisionError, ConfigurationError):
                pass
            # The ownership queries must equal a naive scan at every step.
            report = memory.owners()
            for name in owners:
                assert report.get(name, []) == _naive_owned(memory, name)
            assert memory.unowned_frames() == _naive_unowned(memory)
            expected_util = (frame_count - len(_naive_unowned(memory))) / frame_count
            assert memory.utilisation() == expected_util

    def test_owners_report_matches_scan_order(self, memory):
        memory.claim(_region([5, 3, 9]), "b")
        memory.claim(_region([0, 7]), "a")
        report = memory.owners()
        # Keys in order of first owned frame (raster order), frames in raster
        # order — the order the original full-scan implementation produced.
        assert list(report) == ["a", "b"]
        assert report["b"] == [TEST_GEOMETRY.frame_at(i) for i in (3, 5, 9)]

    def test_clear_frame_invalidates_cached_readback(self, memory):
        # Regression: a readback caches the frame's serialisation; clearing
        # the frame must drop that cache so the next readback is all-zero.
        address = TEST_GEOMETRY.frame_at(2)
        payload = bytes([0x41] * TEST_GEOMETRY.frame_config_bytes)
        memory.write_frame(address, payload, owner="aes")
        cached = memory.read_frame(address)
        assert cached.count(0) < len(cached)
        memory.clear_frame(address)
        assert memory.read_frame(address) == bytes(TEST_GEOMETRY.frame_config_bytes)
        assert memory.frames[address].is_clear

    def test_clear_device_resets_everything(self, memory):
        payload = bytes([1] * TEST_GEOMETRY.frame_config_bytes)
        for address in _region([1, 2, 3]):
            memory.write_frame(address, payload, owner="aes")
        memory.claim(_region([10]), "sha1")  # owned but never written
        memory.clear_region(_region(range(TEST_GEOMETRY.frame_count)))
        assert memory.unowned_frames() == TEST_GEOMETRY.all_frames()
        assert memory.owners() == {}
        assert memory.utilisation() == 0.0
        for index in (1, 2, 3):
            assert memory.frames[TEST_GEOMETRY.frame_at(index)].is_clear


class TestClaim:
    def test_claim_reports_all_frames_of_first_foreign_owner(self, memory):
        memory.claim(_region([2, 4]), "aes")
        memory.claim(_region([6]), "sha1")
        with pytest.raises(FrameCollisionError) as excinfo:
            memory.claim(_region([0, 4, 6, 2]), "fir")
        # First foreign owner encountered walking the region is "aes" (frame
        # 4); every region frame aes holds is reported, later owners are not.
        assert excinfo.value.owner == "aes"
        assert set(excinfo.value.frames) == {
            TEST_GEOMETRY.frame_at(4),
            TEST_GEOMETRY.frame_at(2),
        }

    def test_failed_claim_leaves_ownership_untouched(self, memory):
        memory.claim(_region([4]), "aes")
        with pytest.raises(FrameCollisionError):
            memory.claim(_region([0, 1, 4]), "fir")
        assert "fir" not in memory.owners()
        assert memory.owner_of(TEST_GEOMETRY.frame_at(0)) is None
        assert memory.owner_of(TEST_GEOMETRY.frame_at(4)) == "aes"

    def test_reclaim_by_same_owner_is_allowed(self, memory):
        memory.claim(_region([0, 1]), "aes")
        memory.claim(_region([0, 1, 2]), "aes")
        assert len(memory.owners()["aes"]) == 3


class TestWriteFrame:
    def test_write_frame_roundtrip_and_ownership(self, memory):
        payloads = [
            bytes([index + 1] * TEST_GEOMETRY.frame_config_bytes) for index in range(3)
        ]
        region = _region([8, 5, 11])
        for address, payload in zip(region, payloads):
            memory.write_frame(address, payload, owner="fir")
        # Readback preserves region order and returns the bytes written.
        assert memory.read_region(region) == payloads
        assert memory.owners()["fir"] == sorted(
            region, key=lambda a: a.flat_index(TEST_GEOMETRY.tiles_per_column)
        )

    def test_refused_write_leaves_frame_owner_and_counters_untouched(self, memory):
        address = TEST_GEOMETRY.frame_at(5)
        memory.claim(_region([5]), "aes")
        with pytest.raises(FrameCollisionError):
            memory.write_frame(address, bytes([9] * TEST_GEOMETRY.frame_config_bytes), owner="fir")
        with pytest.raises(ValueError):
            memory.write_frame(TEST_GEOMETRY.frame_at(4), b"\x00", owner="fir")
        assert memory.frames[address].is_clear
        assert memory.owner_of(address) == "aes"
        assert memory.owner_of(TEST_GEOMETRY.frame_at(4)) is None
