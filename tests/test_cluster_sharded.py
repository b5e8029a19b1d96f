"""Sharded fleet execution: merged digests must equal single-process runs.

The determinism argument (static hash routing + card-local timelines +
restartable traces, see ``repro/cluster/sharded.py``) is checked end to end:
for shard counts {1, 2, 4} the merged schedule digest, the counters and the
sojourn sketch must all equal the unsharded reference run.
"""

import multiprocessing
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.cluster import sharded
from repro.cluster.dispatch import StaticHashPolicy
from repro.cluster.sharded import (
    ShardTraceView,
    ShardWorkerError,
    ShardedRunConfig,
    _build_shard_fleet,
    _shard_lines,
    build_single_process_fleet,
    merge_digest_lines,
    partition_cards,
    run_sharded,
)
from repro.cluster.stats import FleetStatistics

#: Small enough for tier-1, long enough to exercise several epochs and every
#: card (1500 requests over ~60 ms of simulated time).
TEST_CONFIG = ShardedRunConfig(total_cards=4, requests=1_500)


def tapped(record, *arguments):
    """The ``(at_ns, started_ns, line)`` one ``record_*`` call leaves in the tap."""
    stats = FleetStatistics(mode="sketch")
    stats.digest_tap = []
    getattr(stats, record)(*arguments)
    (entry,) = stats.digest_tap
    return entry


def done_line(*arguments):
    return tapped("record_completion", *arguments)


def merged_lines(streams):
    merged = FleetStatistics(mode="sketch")
    merge_digest_lines(streams, merged)
    return merged


def assert_equals_single_process(merged, single):
    """Equality, not closeness: everything a run's statistics hold."""
    assert merged.schedule_digest() == single.schedule_digest()
    assert merged.unordered_merge_ties == 0
    ours, theirs = merged.totals(), single.totals()
    for name in ours:
        if not name.endswith("_sojourn"):
            assert ours[name] == theirs[name], name
    assert merged._fleet_sojourn._buckets == single._fleet_sojourn._buckets
    assert merged.tenants() == single.tenants()
    for tenant in [None] + single.tenants():
        for percentile in (50, 95, 99):
            assert merged.latency_percentile(percentile, tenant) == (
                single.latency_percentile(percentile, tenant)
            ), (tenant, percentile)


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
        assert result.epochs >= 1
        assert result.stats.schedule_digest() == single_stats.schedule_digest()

    def test_merged_counters_and_sketch_equal_single_process(self, reference):
        single_fleet, single_stats = reference
        result = run_sharded(TEST_CONFIG, shards=2)
        # Counters, time totals and first/last instants add; the sojourn
        # sketches merge by bucket-count addition: bit-identical sums and
        # identical percentiles, per tenant too, not merely "close".
        assert_equals_single_process(result.stats, single_stats)
        assert result.stats.completed == TEST_CONFIG.requests
        # Card summaries come back in global card order.
        names = [row["card"] for row in result.card_summaries]
        assert names == sorted(names)
        assert len(names) == TEST_CONFIG.total_cards
        assert result.events_dispatched > 0

    def test_merge_shard_records_is_order_insensitive_across_shards(self):
        lines_a = [
            done_line("t0", "crc32", "card0", True, 50, 60, 100),
            tapped("record_rejection", "t0", "crc32", 300),
        ]
        lines_b = [done_line("t1", "fir16", "card1", False, 120, 130, 200)]
        first = merged_lines([lines_a, lines_b])
        second = merged_lines([lines_b, lines_a])
        assert first.schedule_digest() == second.schedule_digest()
        whole = FleetStatistics(mode="sketch")
        for _, _, line in (lines_a[0], lines_b[0], lines_a[1]):
            whole._note(line)
        assert first.schedule_digest() == whole.schedule_digest()

    def test_same_instant_completions_merge_in_service_start_order(self):
        late = done_line("t0", "crc32", "card0", True, 90, 400, 500)
        early = done_line("t1", "fir16", "card1", True, 80, 300, 500)
        expected = merged_lines([[early, late]])
        for streams in ([[late], [early]], [[early], [late]]):
            merged = merged_lines(streams)
            assert merged.schedule_digest() == expected.schedule_digest()
            assert merged.unordered_merge_ties == 0
        # Equal start *and* completion on two shards: folded in shard
        # order, and counted — the key cannot know the kernel's order.
        twin = done_line("t1", "fir16", "card1", True, 80, 400, 500)
        assert merged_lines([[late], [twin]]).unordered_merge_ties == 1
        assert merged_lines([[late, twin]]).unordered_merge_ties == 0

    def test_a_rejection_or_expiry_folds_behind_its_instants_completions(self):
        done = done_line("t0", "crc32", "card0", True, 90, 400, 500)
        for record in ("record_rejection", "record_expired"):
            refusal = tapped(record, "t1", "fir16", 500)
            assert refusal[:2] == (500, 500)
            expected = merged_lines([[done, refusal]])
            for streams in ([[refusal], [done]], [[done], [refusal]]):
                merged = merged_lines(streams)
                assert merged.schedule_digest() == expected.schedule_digest()
                assert merged.unordered_merge_ties == 0

    def test_the_merge_reads_a_chunk_only_when_it_needs_a_line(self):
        asked = []

        class ScriptedPipe:
            def __init__(self, shard, messages):
                self.shard, self.messages = shard, list(messages)

            def poll(self, timeout):
                return True

            def recv(self):
                asked.append(self.shard)
                return self.messages.pop(0)

        def chunk(*instants):
            return "lines", [done_line("t0", "crc32", "card0", True, 0, at, at) for at in instants]

        scripts = [
            [chunk(10, 30), chunk(50), ("final", {"shard": 0})],
            [chunk(20), chunk(40, 60), ("final", {"shard": 1})],
        ]
        snapshots = [{} for _ in scripts]
        streams = [
            _shard_lines(shard, ScriptedPipe(shard, script), snapshots)
            for shard, script in enumerate(scripts)
        ]
        merged = FleetStatistics(mode="sketch")
        folded = []
        merged._note = lambda line: folded.append((line, sorted(asked)))
        merge_digest_lines(streams, merged)
        instants = [int(line.rsplit(b"|", 1)[1]) for line, _ in folded]
        assert instants == [10, 20, 30, 40, 50, 60]
        # What had been received when each line was folded: one chunk per
        # stream for the first line, and a stream's next chunk only once the
        # merge has folded the last line of the chunk before it.
        assert [asked_then for _, asked_then in folded] == [
            [0, 1],
            [0, 1],
            [0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1, 1],
        ]
        assert snapshots == [{"shard": 0}, {"shard": 1}]


class TestWorkerFailure:
    """A worker that raises, dies or hangs is one typed, bounded error."""

    @pytest.fixture(autouse=True)
    def forked_and_bounded(self):
        # The patched worker reaches the child by fork inheritance; the alarm
        # keeps a parent that waits for ever from hanging the suite.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs the fork start method")

        def hung(signum, frame):
            raise TimeoutError("run_sharded did not return within 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        assert [child for child in multiprocessing.active_children() if child.is_alive()] == []

    def test_a_worker_that_raises_is_named_with_its_error(self, monkeypatch):
        def broken_build(config, card_indices):
            raise ValueError(f"no bank for {card_indices}")

        monkeypatch.setattr(sharded, "_build_shard_fleet", broken_build)
        with pytest.raises(ShardWorkerError) as raised:
            run_sharded(TEST_CONFIG, shards=2)
        assert str(raised.value) == "shard 0 failed: " + repr(ValueError("no bank for [0, 2]"))

    def test_a_killed_worker_is_a_shard_worker_error(self, monkeypatch):
        monkeypatch.setattr(sharded, "_shard_worker", lambda *args: os._exit(3))
        with pytest.raises(ShardWorkerError, match="shard 0 died"):
            run_sharded(TEST_CONFIG, shards=2)

    def test_a_silent_worker_is_bounded_and_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(sharded, "_shard_worker", lambda *args: time.sleep(60))
        monkeypatch.setattr(sharded, "WORKER_SILENCE_S", 0.2)
        began = time.monotonic()
        with pytest.raises(ShardWorkerError, match="shard 0 sent nothing for 0.2 s"):
            run_sharded(TEST_CONFIG, shards=2)
        assert time.monotonic() - began < 10


def sweep_config(trace_seed):
    return ShardedRunConfig(
        total_cards=4, requests=20_000, trace_seed=trace_seed, epoch_ns=100_000_000
    )


class TestDigestSweep:
    """ROADMAP item 3a's gate.  On float time the first seven seeds of the
    first sweep diverged (one ``started_ns`` of 20 000 off in the last bit:
    ``now + (arrival - now) != arrival``); the five seeds of the second
    complete two cards at one instant, which a timestamp-only merge key
    replays in the wrong order."""

    @pytest.mark.parametrize("trace_seed", [20, 21, 32, 62, 63, 75, 77, 1, 2, 3, 5, 6])
    def test_two_shard_digest_equals_single_process(self, trace_seed):
        config = sweep_config(trace_seed)
        fleet, trace = build_single_process_fleet(config)
        assert_equals_single_process(run_sharded(config, shards=2).stats, fleet.run(trace))

    @pytest.mark.parametrize("trace_seed", [1, 2])
    def test_overloaded_shards_reject_identically(self, trace_seed):
        config = ShardedRunConfig(
            total_cards=4, requests=6_000, trace_seed=trace_seed,
            queue_depth=2, mean_interarrival_ns=1_500.0, epoch_ns=2_000_000,
        )
        fleet, trace = build_single_process_fleet(config)
        single = fleet.run(trace)
        assert single.rejected > config.requests // 10
        result = run_sharded(config, shards=2)
        assert result.epochs > 3
        assert_equals_single_process(result.stats, single)

    @pytest.mark.parametrize("trace_seed", [4, 37, 42, 44, 45])
    def test_four_way_merge_with_cross_shard_ties(self, trace_seed):
        config = sweep_config(trace_seed)
        streams, merged = [], FleetStatistics(mode="sketch")
        for index in range(config.total_cards):
            fleet, view = _build_shard_fleet(config, [index])
            fleet.stats.digest_tap = []
            merged.absorb(fleet.run(view).totals())
            streams.append(sorted(fleet.stats.digest_tap, key=lambda entry: entry[:2]))
        instants = [entry[0] for stream in streams for entry in stream]
        assert len(set(instants)) < len(instants)  # the seed does tie
        merge_digest_lines(streams, merged)
        fleet, trace = build_single_process_fleet(config)
        assert_equals_single_process(merged, fleet.run(trace))
