"""Tests for the co-processor core: configuration, download, execution, stats."""

import pytest

from repro.core.builder import build_coprocessor, build_default_coprocessor
from repro.core.config import CoprocessorConfig, SMALL_CONFIG
from repro.core.exceptions import UnknownFunctionError
from repro.core.stats import CoprocessorStatistics


class TestCoprocessorConfig:
    def test_geometry_derived_from_fields(self):
        config = CoprocessorConfig(fabric_columns=8, fabric_rows=32, clb_rows_per_frame=4)
        geometry = config.geometry()
        assert geometry.frame_count == 64

    def test_with_overrides_returns_new_config(self):
        config = CoprocessorConfig()
        other = config.with_overrides(replacement_policy="fifo", seed=9)
        assert other.replacement_policy == "fifo" and other.seed == 9
        assert config.replacement_policy == "lru"

    def test_validation(self):
        with pytest.raises(ValueError):
            CoprocessorConfig(rom_capacity_bytes=0)
        with pytest.raises(ValueError):
            CoprocessorConfig(compression_window_bytes=0)
        with pytest.raises(ValueError):
            CoprocessorConfig(software_slowdown=0)


class TestBankDownload:
    def test_download_creates_a_record_per_function(self, small_coprocessor):
        records = small_coprocessor.rom.record_table
        assert len(records) == len(small_coprocessor.bank)
        for function in small_coprocessor.bank:
            record = records.by_name(function.name)
            assert record.input_bytes == function.spec.input_bytes
            assert record.output_bytes == function.spec.output_bytes
            assert record.frame_count == function.frames_required(small_coprocessor.geometry)
            assert record.codec_name == small_coprocessor.config.codec_name

    def test_download_reports_compression(self, small_coprocessor):
        for name, report in small_coprocessor.download_reports.items():
            assert report["stored_bytes"] > 0
            assert report["raw_bytes"] >= report["frames"]
            assert report["compression_ratio"] > 0

    def test_rom_layout_accounts_for_all_functions(self, small_coprocessor):
        layout = small_coprocessor.rom_layout()
        assert layout["functions"] == len(small_coprocessor.bank)
        assert layout["bitstream_bytes"] + layout["record_bytes"] + layout["free_bytes"] == layout["capacity_bytes"]

    def test_execute_without_download_downloads_lazily(self, small_config, small_bank):
        copro = build_coprocessor(config=small_config, bank=small_bank, download=False)
        assert not copro.bank_downloaded
        result = copro.execute("crc32", b"abc")
        assert copro.bank_downloaded
        assert len(result.output) == 4


class TestExecution:
    def test_results_match_reference_for_every_function(self, small_coprocessor):
        for function in small_coprocessor.bank:
            data = bytes(range(function.spec.input_bytes))
            result = small_coprocessor.execute(function.name, data)
            assert result.output == function.behaviour(data), function.name

    def test_unknown_function_raises(self, small_coprocessor):
        with pytest.raises(UnknownFunctionError):
            small_coprocessor.execute("ghost", b"")

    def test_hit_miss_accounting(self, small_coprocessor):
        first = small_coprocessor.execute("crc32", b"x")
        second = small_coprocessor.execute("crc32", b"x")
        assert not first.hit
        assert second.hit
        stats = small_coprocessor.stats
        assert stats.requests == 2 and stats.hits == 1 and stats.misses == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_latency_breakdown_is_positive_and_complete(self, small_coprocessor):
        result = small_coprocessor.execute("parity32", bytes(4))
        assert result.latency_ns > 0
        assert set(result.breakdown) == {
            "decode", "stage_input", "reconfigure", "feed", "execute", "collect", "readout",
        }
        assert sum(result.breakdown.values()) == pytest.approx(result.latency_ns, rel=1e-6)

    def test_preload_hides_reconfiguration_from_execute(self, small_coprocessor):
        small_coprocessor.preload("adder8")
        result = small_coprocessor.execute("adder8", bytes([1, 1]))
        assert result.hit

    def test_evict_and_reset(self, small_coprocessor):
        small_coprocessor.execute("crc32", b"x")
        small_coprocessor.evict("crc32")
        assert not small_coprocessor.is_loaded("crc32")
        small_coprocessor.execute("crc32", b"x")
        small_coprocessor.reset()
        assert small_coprocessor.loaded_functions() == []
        assert small_coprocessor.stats.requests == 0

    def test_clock_advances_monotonically(self, small_coprocessor):
        times = []
        for _ in range(3):
            small_coprocessor.execute("crc32", b"data")
            times.append(small_coprocessor.clock.now)
        assert times == sorted(times)
        assert times[0] > 0

    def test_describe_mentions_policy_and_codec(self, small_coprocessor):
        text = small_coprocessor.describe()
        assert "lru" in text
        assert small_coprocessor.config.codec_name in text


class TestStatistics:
    def test_percentiles_and_summary(self, small_coprocessor):
        for index in range(10):
            small_coprocessor.execute("crc32", bytes([index]) * 16)
        stats = small_coprocessor.stats
        assert stats.latency_percentile(0) <= stats.latency_percentile(50) <= stats.latency_percentile(100)
        summary = stats.summary()
        assert summary["requests"] == 10
        assert 0 < summary["hit_rate"] <= 1.0
        assert "mean latency" in stats.describe()

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            stats = CoprocessorStatistics()
            stats.latencies_ns.append(1.0)
            stats.latency_percentile(150)

    def test_per_function_latency(self, small_coprocessor):
        small_coprocessor.execute("crc32", b"abc")
        small_coprocessor.execute("parity32", bytes(4))
        stats = small_coprocessor.stats
        assert stats.per_function_requests == {"crc32": 1, "parity32": 1}
        assert stats.per_function_latency_ns["crc32"] > 0
        assert "ghost" not in stats.per_function_latency_ns

    def test_empty_statistics_are_zero(self):
        stats = CoprocessorStatistics()
        assert stats.hit_rate == 0.0
        assert stats.mean_latency_ns == 0.0
        assert stats.latency_percentile(95) == 0.0


class TestDefaultBuilder:
    def test_small_default_coprocessor(self):
        copro = build_default_coprocessor(seed=1, small=True)
        assert copro.bank_downloaded
        assert len(copro.bank) == 4

    def test_function_subset_builder(self, default_bank):
        copro = build_coprocessor(
            config=SMALL_CONFIG, bank=default_bank, functions=["crc32", "sha1"]
        )
        assert copro.bank.names() == ["crc32", "sha1"]
        result = copro.execute("sha1", b"abc")
        assert result.output == default_bank.by_name("sha1").behaviour(b"abc")
