"""Sharded fleet execution: merged digests must equal single-process runs.

The determinism argument (static hash routing + card-local timelines +
restartable traces, see ``repro/cluster/sharded.py``) is checked end to end:
for shard counts {1, 2, 4} the merged schedule digest, the counters and the
sojourn sketch must all equal the unsharded reference run.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.dispatch import StaticHashPolicy
from repro.cluster.sharded import (
    ShardTraceView,
    ShardedRunConfig,
    _build_shard_fleet,
    build_single_process_fleet,
    merge_shard_records,
    partition_cards,
    run_sharded,
)

#: Small enough for tier-1, long enough to exercise several lockstep epochs
#: and every card (1500 requests over ~60 ms of simulated time).
TEST_CONFIG = ShardedRunConfig(total_cards=4, requests=1_500)


def fake_card(index, has_room=True):
    return SimpleNamespace(index=index, has_room=has_room)


class TestStaticHashPolicy:
    def test_home_index_is_pure_and_stable(self):
        assert StaticHashPolicy.home_index("crc32", 4) == StaticHashPolicy.home_index(
            "crc32", 4
        )
        homes = {StaticHashPolicy.home_index(name, 4) for name in
                 ("crc32", "aes_round", "fir16", "histogram", "matmul4")}
        assert homes <= set(range(4))

    def test_choose_routes_to_home_card(self):
        policy = StaticHashPolicy(total_cards=4)
        cards = [fake_card(index) for index in range(4)]
        request = SimpleNamespace(function="crc32")
        chosen = policy.choose(request, cards)
        assert chosen.index == StaticHashPolicy.home_index("crc32", 4)

    def test_full_home_card_rejects_rather_than_spills(self):
        home = StaticHashPolicy.home_index("crc32", 4)
        cards = [fake_card(index, has_room=(index != home)) for index in range(4)]
        policy = StaticHashPolicy(total_cards=4)
        assert policy.choose(SimpleNamespace(function="crc32"), cards) is None

    def test_unhosted_home_card_is_an_error(self):
        home = StaticHashPolicy.home_index("crc32", 4)
        cards = [fake_card(index) for index in range(4) if index != home]
        with pytest.raises(ValueError):
            StaticHashPolicy(total_cards=4).choose(
                SimpleNamespace(function="crc32"), cards
            )

    def test_total_cards_validated(self):
        with pytest.raises(ValueError):
            StaticHashPolicy(total_cards=0)

    def test_default_total_is_offered_card_count(self):
        cards = [fake_card(index) for index in range(3)]
        chosen = StaticHashPolicy().choose(SimpleNamespace(function="fir16"), cards)
        assert chosen.index == StaticHashPolicy.home_index("fir16", 3)


class TestPartitioning:
    def test_strided_partition_covers_all_cards_disjointly(self):
        for shards in (1, 2, 3, 4):
            partitions = partition_cards(4, shards)
            assert len(partitions) == shards
            flat = [index for part in partitions for index in part]
            assert sorted(flat) == list(range(4))

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            partition_cards(4, 0)
        with pytest.raises(ValueError):
            partition_cards(2, 3)

    def test_trace_view_partitions_the_stream_exactly(self):
        _, full_trace = build_single_process_fleet(TEST_CONFIG)
        requests = list(full_trace._trace)
        views = [
            ShardTraceView(requests, part, TEST_CONFIG.total_cards)
            for part in partition_cards(TEST_CONFIG.total_cards, 2)
        ]
        shares = [list(view) for view in views]
        assert sum(len(share) for share in shares) == len(requests)
        for part, share in zip(partition_cards(TEST_CONFIG.total_cards, 2), shares):
            homes = set(part)
            assert all(
                StaticHashPolicy.home_index(request.function, TEST_CONFIG.total_cards)
                in homes
                for request in share
            )


class TestShardedEqualsSingleProcess:
    @pytest.fixture(scope="class")
    def reference(self):
        fleet, trace = build_single_process_fleet(TEST_CONFIG)
        stats = fleet.run(trace)
        return fleet, stats

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_digest_equals_single_process(self, reference, shards):
        _, single_stats = reference
        result = run_sharded(TEST_CONFIG, shards=shards)
        assert result.shards == shards
        assert result.epochs >= 1
        assert result.stats.schedule_digest() == single_stats.schedule_digest()

    def test_merged_counters_and_sketch_equal_single_process(self, reference):
        single_fleet, single_stats = reference
        result = run_sharded(TEST_CONFIG, shards=2)
        merged = result.stats
        assert merged.completed == single_stats.completed
        assert merged.rejected == single_stats.rejected
        assert merged.arrivals == single_stats.arrivals
        assert merged.dispatched == single_stats.dispatched
        assert dict(merged.per_tenant_completed) == dict(
            single_stats.per_tenant_completed
        )
        assert dict(merged.per_card_dispatched) == dict(
            single_stats.per_card_dispatched
        )
        assert merged.first_arrival_ns == single_stats.first_arrival_ns
        # The sojourn sketches are merged by replay: bit-identical sums and
        # identical percentiles, not merely "close".
        assert merged._fleet_sojourn._sum == single_stats._fleet_sojourn._sum
        for percentile in (50, 95, 99):
            assert merged.latency_percentile(percentile) == single_stats.latency_percentile(
                percentile
            )
        # Card summaries come back in global card order.
        names = [row["card"] for row in result.card_summaries]
        assert names == sorted(names)
        assert len(names) == TEST_CONFIG.total_cards
        assert result.events_dispatched > 0

    def test_merge_shard_records_is_order_insensitive_across_shards(self):
        records_a = [
            ("done", 100, "t0", "crc32", "card0", True, 50, 60, False),
            ("reject", 300, "t0", "crc32"),
        ]
        records_b = [
            ("done", 200, "t1", "fir16", "card1", False, 120, 130, False),
        ]
        first = merge_shard_records([records_a, records_b])
        second = merge_shard_records([records_b, records_a])
        assert first.schedule_digest() == second.schedule_digest()
        assert first.completed == 2 and first.rejected == 1

    def test_same_instant_completions_merge_in_service_start_order(self):
        late = ("done", 500, "t0", "crc32", "card0", True, 90, 400, False)
        early = ("done", 500, "t1", "fir16", "card1", True, 80, 300, False)
        expected = merge_shard_records([[early, late]])
        for shard_records in ([[late], [early]], [[early], [late]]):
            merged = merge_shard_records(shard_records)
            assert merged.schedule_digest() == expected.schedule_digest()
            assert merged.unordered_merge_ties == 0
        # Equal start *and* completion on two shards: replayed in shard
        # order, and counted — the key cannot know the kernel's order.
        twin = ("done", 500, "t1", "fir16", "card1", True, 80, 400, False)
        assert merge_shard_records([[late], [twin]]).unordered_merge_ties == 1
        assert merge_shard_records([[late, twin]]).unordered_merge_ties == 0


def sweep_config(trace_seed):
    return ShardedRunConfig(
        total_cards=4, requests=20_000, trace_seed=trace_seed, epoch_ns=100_000_000
    )


def single_process_digest(config):
    fleet, trace = build_single_process_fleet(config)
    return fleet.run(trace).schedule_digest()


class TestDigestSweep:
    """ROADMAP item 3a's gate.  On float time the first seven seeds of the
    first sweep diverged (one ``started_ns`` of 20 000 off in the last bit:
    ``now + (arrival - now) != arrival``); the five seeds of the second
    complete two cards at one instant, which a timestamp-only merge key
    replays in the wrong order."""

    @pytest.mark.parametrize("trace_seed", [20, 21, 32, 62, 63, 75, 77, 1, 2, 3, 5, 6])
    def test_two_shard_digest_equals_single_process(self, trace_seed):
        config = sweep_config(trace_seed)
        result = run_sharded(config, shards=2)
        assert result.stats.schedule_digest() == single_process_digest(config)
        assert result.stats.unordered_merge_ties == 0

    @pytest.mark.parametrize("trace_seed", [4, 37, 42, 44, 45])
    def test_four_way_merge_with_cross_shard_ties(self, trace_seed):
        config = sweep_config(trace_seed)
        logs = []
        for index in range(config.total_cards):
            fleet, view = _build_shard_fleet(config, [index])
            fleet.stats.enable_record_log()
            fleet.run(view)
            logs.append(fleet.stats.drain_record_log())
        instants = [record[1] for log in logs for record in log]
        assert len(set(instants)) < len(instants)  # the seed does tie
        merged = merge_shard_records(logs, mode=config.stats_mode)
        assert merged.schedule_digest() == single_process_digest(config)
        assert merged.unordered_merge_ties == 0
