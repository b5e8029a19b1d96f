"""Tests for the trace recorder and the seeded RNG helpers."""

import pytest

from repro.sim.clock import Clock
from repro.sim.rand import SeededRandom
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_records_events(self):
        recorder = TraceRecorder()
        recorder.record("rom", "read", 0.0, 10.0, length=4)
        recorder.record("rom", "read", 10.0, 30.0, length=8)
        assert len(recorder.events) == 2
        assert [event.end_ns - event.start_ns for event in recorder] == [10.0, 20.0]

    def test_rejects_negative_duration(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            recorder.record("x", "y", 10.0, 5.0)

    def test_disabled_recorder_drops_everything(self):
        recorder = TraceRecorder(enabled=False)
        assert recorder.record("x", "y", 0.0, 1.0) is None
        assert len(recorder.events) == 0

    def test_capacity_limits_retention(self):
        recorder = TraceRecorder()
        recorder.capacity = 2
        for index in range(4):
            recorder.record("c", "a", index, index + 1)
        assert len(recorder.events) == 2
        assert recorder.dropped == 2

    def test_clock_readings_are_stored_as_whole_ns(self):
        # Recorded times are the clock's own ints (the obs bridge re-exports
        # them as span timestamps): nothing is rounded at the recorder.
        clock = Clock()
        recorder = TraceRecorder()
        start = clock.advance(1)
        clock.advance(2)
        event = recorder.record("rom", "read", start, clock.now)
        assert (event.start_ns, event.end_ns) == (1, 3)
        assert type(event.start_ns) is int and type(event.end_ns) is int


class TestSeededRandom:
    def test_reproducible(self):
        a = SeededRandom(42)
        b = SeededRandom(42)
        assert [a.integer(0, 100) for _ in range(10)] == [b.integer(0, 100) for _ in range(10)]

    @pytest.mark.parametrize("jitter", [4_000, 4_000.0, 1])
    def test_random_is_the_uniform_draw_to_the_bit(self, jitter):
        # The link draws ``random() < loss`` and ``jitter * random()`` where it
        # used to call ``uniform()`` and ``uniform(0.0, jitter)``; the oracle
        # (tests/oracles/pump_link.py) still does.  ``==``, not approx.
        for seed in range(10):
            a, b = SeededRandom(seed), SeededRandom(seed)
            random = b.random
            for _ in range(1_000):
                assert a.uniform() == random()
                assert a.uniform(0.0, jitter) == jitter * random()

    def test_fork_is_deterministic_and_independent(self):
        a = SeededRandom(1).fork("x")
        b = SeededRandom(1).fork("x")
        c = SeededRandom(1).fork("y")
        sequence_a = [a.integer(0, 1000) for _ in range(5)]
        sequence_b = [b.integer(0, 1000) for _ in range(5)]
        sequence_c = [c.integer(0, 1000) for _ in range(5)]
        assert sequence_a == sequence_b
        assert sequence_a != sequence_c

    def test_fork_is_stable_across_processes(self):
        # fork() must not depend on the per-process string-hash salt: pinned
        # values guard the derived seeds so workload traces (and the
        # experiments consuming them) reproduce byte-identically run to run.
        assert SeededRandom(2005).fork("phase:0").seed == 2076257117
        assert SeededRandom(0).fork("payload:aes128").seed == 906407113

    def test_bytes_deterministic_length(self):
        rng = SeededRandom(3)
        data = rng.bytes(32)
        assert len(data) == 32
        assert SeededRandom(3).bytes(32) == data

    def test_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            SeededRandom().bytes(-1)

    def test_choice_and_shuffle_preserve_elements(self):
        rng = SeededRandom(5)
        items = list(range(20))
        assert rng.choice(items) in items
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # input untouched

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            SeededRandom().choice([])

    def test_exponential_mean(self):
        rng = SeededRandom(13)
        samples = [rng.exponential(100.0) for _ in range(4000)]
        assert 85.0 < sum(samples) / len(samples) < 115.0
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_geometric(self):
        rng = SeededRandom(17)
        samples = [rng.geometric(0.5) for _ in range(2000)]
        assert all(sample >= 1 for sample in samples)
        assert 1.7 < sum(samples) / len(samples) < 2.3
        with pytest.raises(ValueError):
            rng.geometric(0.0)
