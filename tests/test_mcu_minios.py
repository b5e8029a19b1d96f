"""Tests for the mini OS data structures: free frame list, replacement table,
policies and the load-planning logic."""

import pytest

from repro.fpga.frame import FrameRegion
from repro.mcu.minios import (
    FifoPolicy,
    FrameReplacementTable,
    LfuPolicy,
    LruPolicy,
    MiniOs,
    RandomPolicy,
    build_policy,
)
from repro.mcu.minios.policies import CapacityError, available_policies


def _region(geometry, indices):
    return FrameRegion.from_addresses([geometry.frame_at(index) for index in indices])


class TestFreeFrameList:
    """The Free Frame List is the replacement table's complement."""

    @staticmethod
    def _load(minios, geometry, name, indices):
        minios.commit_load(name, _region(geometry, indices), 0)

    def test_starts_with_every_frame_free(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        assert minios.free_count == tiny_geometry.frame_count
        assert minios.free_frames() == tiny_geometry.all_frames()
        assert minios.placer.largest_free_run(minios.free_frames()) == tiny_geometry.frame_count

    def test_allocate_and_release(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        self._load(minios, tiny_geometry, "sha1", [0, 1, 2])
        assert minios.free_count == tiny_geometry.frame_count - 3
        assert tiny_geometry.frame_at(0) not in minios.free_frames()
        minios.commit_eviction("sha1")
        assert minios.free_count == tiny_geometry.frame_count
        assert minios.free_frames() == tiny_geometry.all_frames()

    def test_largest_contiguous_run_with_fragmentation(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        self._load(minios, tiny_geometry, "a", [3])
        self._load(minios, tiny_geometry, "b", [8])
        # Runs: 0-2 (3), 4-7 (4), 9-15 (7).
        assert minios.placer.largest_free_run(minios.free_frames()) == 7

    def test_as_list_is_sorted(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        held = [index for index in range(tiny_geometry.frame_count) if index not in (2, 9)]
        self._load(minios, tiny_geometry, "a", reversed(held[:7]))
        self._load(minios, tiny_geometry, "b", reversed(held[7:]))
        indices = [
            address.flat_index(tiny_geometry.tiles_per_column)
            for address in minios.free_frames()
        ]
        assert indices == [2, 9]


class TestFrameReplacementTable:
    def test_insert_touch_remove(self, tiny_geometry):
        table = FrameReplacementTable()
        table.insert("aes128", _region(tiny_geometry, [0, 1]), now_ns=100.0)
        assert "aes128" in table and len(table) == 1
        table.touch("aes128", 250.0)
        entry = table.entry("aes128")
        assert entry.last_access_ns == 250.0 and entry.access_count == 1
        removed = table.remove("aes128")
        assert removed.frame_count == 2 and "aes128" not in table

    def test_duplicate_insert_rejected(self, tiny_geometry):
        table = FrameReplacementTable()
        table.insert("x", _region(tiny_geometry, [0]), 0.0)
        with pytest.raises(ValueError):
            table.insert("x", _region(tiny_geometry, [1]), 0.0)

    def test_missing_entry_rejected(self):
        table = FrameReplacementTable()
        with pytest.raises(KeyError):
            table.entry("ghost")
        with pytest.raises(KeyError):
            table.remove("ghost")

    def test_resident_frame_count_and_describe(self, tiny_geometry):
        table = FrameReplacementTable()
        table.insert("a", _region(tiny_geometry, [0, 1]), 0.0)
        table.insert("b", _region(tiny_geometry, [2]), 1.0)
        assert sum(entry.frame_count for entry in table) == 3


class TestPolicies:
    def _table(self, tiny_geometry):
        table = FrameReplacementTable()
        table.insert("first", _region(tiny_geometry, [0, 1]), now_ns=10.0)    # oldest load
        table.insert("second", _region(tiny_geometry, [2, 3, 4]), now_ns=20.0)
        table.insert("third", _region(tiny_geometry, [5]), now_ns=30.0)
        table.touch("first", 100.0)   # recently used, frequently used
        table.touch("first", 110.0)
        table.touch("second", 50.0)
        return table

    def test_lru_evicts_oldest_timestamp(self, tiny_geometry):
        table = self._table(tiny_geometry)
        ranked = LruPolicy().rank_victims(table)
        assert [entry.name for entry in ranked] == ["third", "second", "first"]

    def test_fifo_evicts_oldest_load(self, tiny_geometry):
        table = self._table(tiny_geometry)
        ranked = FifoPolicy().rank_victims(table)
        assert [entry.name for entry in ranked] == ["first", "second", "third"]

    def test_lfu_evicts_least_accessed(self, tiny_geometry):
        table = self._table(tiny_geometry)
        ranked = LfuPolicy().rank_victims(table)
        assert ranked[0].name == "third"

    def test_random_is_seed_deterministic(self, tiny_geometry):
        table = self._table(tiny_geometry)
        first = [entry.name for entry in RandomPolicy(seed=3).rank_victims(table)]
        second = [entry.name for entry in RandomPolicy(seed=3).rank_victims(table)]
        assert first == second
        assert sorted(first) == ["first", "second", "third"]

    def test_select_victims_frees_enough_frames(self, tiny_geometry):
        table = self._table(tiny_geometry)
        victims = LruPolicy().select_victims(table, frames_needed=4, free_frames=0)
        assert sum(victim.frame_count for victim in victims) >= 4
        assert victims[0].name == "third"

    def test_select_victims_respects_protection(self, tiny_geometry):
        table = self._table(tiny_geometry)
        victims = LruPolicy().select_victims(
            table, frames_needed=1, free_frames=0, protect={"third"}
        )
        assert victims[0].name == "second"

    def test_select_victims_no_op_when_enough_free(self, tiny_geometry):
        table = self._table(tiny_geometry)
        assert LruPolicy().select_victims(table, frames_needed=2, free_frames=5) == []

    def test_capacity_error_when_nothing_left_to_evict(self, tiny_geometry):
        table = self._table(tiny_geometry)
        with pytest.raises(CapacityError):
            LruPolicy().select_victims(table, frames_needed=100, free_frames=0)

    def test_policy_registry(self):
        assert available_policies() == ["fifo", "lfu", "lru", "random"]
        assert build_policy("lru").name == "lru"
        assert build_policy("random", seed=5).name == "random"
        with pytest.raises(KeyError):
            build_policy("arc")


class TestMiniOs:
    def test_hit_when_already_resident(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        decision = minios.plan_load("aes128", 2)
        assert not decision.hit
        minios.commit_load("aes128", decision.region, 0.0)
        second = minios.plan_load("aes128", 2)
        assert second.hit and second.region is None
        assert minios.stats.hits == 1 and minios.stats.misses == 1

    def test_miss_without_eviction_uses_free_frames(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        decision = minios.plan_load("sha1", 3)
        assert decision.evictions == []
        assert len(decision.region) == 3
        minios.commit_load("sha1", decision.region, 0.0)
        assert minios.free_count == tiny_geometry.frame_count - 3

    def test_eviction_planned_when_fabric_full(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        # Fill the fabric with two functions.
        for name, frames in (("a", 10), ("b", 6)):
            decision = minios.plan_load(name, frames)
            minios.commit_load(name, decision.region, 0.0)
        minios.touch("a", 50.0)  # make "b" the LRU victim
        decision = minios.plan_load("c", 4)
        assert decision.evictions == ["b"]
        # Execute the plan: evict then load.
        for victim in decision.evictions:
            minios.commit_eviction(victim)
        minios.commit_load("c", decision.region, 60.0)
        assert not minios.is_resident("b")
        assert minios.is_resident("c")
        assert minios.stats.evictions == 1
        assert minios.stats.frames_evicted == 6

    def test_capacity_error_for_oversized_function(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        with pytest.raises(CapacityError):
            minios.plan_load("huge", tiny_geometry.frame_count + 1)
        assert minios.free_count == tiny_geometry.frame_count

    def test_reset(self, tiny_geometry):
        minios = MiniOs(tiny_geometry)
        decision = minios.plan_load("x", 2)
        minios.commit_load("x", decision.region, 0.0)
        minios.reset()
        assert not minios.is_resident("x")
        assert minios.free_count == tiny_geometry.frame_count
        assert minios.stats.misses == 0
