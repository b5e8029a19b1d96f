"""Tier-1 smoke coverage for the perf harness.

Every benchmark section runs at tiny sizes so the harness itself cannot rot,
and the ``--check`` comparison logic is exercised against synthetic baselines
in both the passing and the regressing direction.
"""

import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import perf_smoke  # noqa: E402


class TestSectionsRunTiny:
    def test_codecs_section(self):
        results = perf_smoke.bench_codecs()
        assert set(results) == {"huffman", "golomb", "lz77", "rle", "framediff", "symmetry"}
        for entry in results.values():
            assert entry["compress_MBps"] > 0
            assert entry["decompress_MBps"] > 0

    def test_device_section_tiny(self):
        results = perf_smoke.bench_device(
            netlist_bits=8, pipeline_rounds=2, replay_requests=8
        )
        assert set(results) == {"netlist_exec", "reconfig_pipeline", "trace_replay"}
        for name in ("adder", "parity"):
            entry = results["netlist_exec"][name]
            assert entry["runs_per_s"] > 0
            assert entry["speedup_vs_reference"] > 0
        assert results["reconfig_pipeline"]["misses"] >= results["reconfig_pipeline"]["requests"]
        assert results["trace_replay"]["requests"] == 8
        assert results["trace_replay"]["hits"] + results["trace_replay"]["misses"] == 8

    def test_cluster_section_tiny(self):
        results = perf_smoke.bench_cluster(cards=2, trace_length=24, tenants=2)
        assert set(results) == {"affinity", "round_robin", "reconfigs_avoided_by_affinity"}
        for policy in ("affinity", "round_robin"):
            entry = results[policy]
            assert entry["completed"] + entry["rejected"] == 24
            assert entry["requests_per_s"] > 0
            assert entry["events_dispatched"] > 0
            assert len(entry["schedule_digest"]) == 16
        avoided = results["reconfigs_avoided_by_affinity"]
        assert avoided is None or avoided >= 0

    def test_faults_section_tiny(self):
        results = perf_smoke.bench_faults(
            upsets_per_round=6, scrub_rounds=2, fleet_cards=2, fleet_trace_length=24
        )
        assert set(results) == {"scrub_sweep", "fault_fleet"}
        sweep = results["scrub_sweep"]
        assert sweep["frames_per_s"] > 0
        assert sweep["frames_checked"] > 0
        assert sweep["detected"] == sweep["corrected"]
        assert sweep["uncorrectable"] == 0
        fleet = results["fault_fleet"]
        assert fleet["completed"] + fleet["rejected"] == 24
        assert fleet["card_failures"] == 1
        assert fleet["requests_per_s"] > 0
        assert len(fleet["schedule_digest"]) == 16

    def test_rebalance_section_tiny(self):
        results = perf_smoke.bench_rebalance(
            fleet_cards=2, fleet_trace_length=24, defrag_cycles=2
        )
        assert set(results) == {"defrag_sweep", "rebalance_fleet"}
        sweep = results["defrag_sweep"]
        assert sweep["frames_moved"] > 0
        assert sweep["frames_moved_per_s"] > 0
        assert sweep["frag_after_last"] == 0.0
        fleet = results["rebalance_fleet"]
        assert fleet["completed"] + fleet["rejected"] == 24
        assert fleet["migrations_completed"] > 0
        assert fleet["migration_byte_diffs"] == 0
        assert fleet["requests_per_s"] > 0
        assert len(fleet["schedule_digest"]) == 16

    def test_net_section_tiny(self):
        results = perf_smoke.bench_net(trace_length=60)
        assert set(results) == {"frontdoor"}
        entry = results["frontdoor"]
        assert entry["net_requests"] == 60
        assert entry["net_completed"] + entry["net_failed"] == 60
        assert entry["requests_per_s"] > 0
        assert entry["events_dispatched"] > 0
        # The section must exercise the loss/retry and shed machinery, not
        # just a clean pass-through.
        assert entry["net_retries"] > 0
        assert entry["shed"] > 0
        assert len(entry["schedule_digest"]) == 16

    def test_net_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_net(trace_length=40)
        second = perf_smoke.bench_net(trace_length=40)
        for key in (
            "events_dispatched",
            "final_time_ns",
            "net_completed",
            "net_retries",
            "shed",
            "packets_lost",
            "schedule_digest",
        ):
            assert first["frontdoor"][key] == second["frontdoor"][key], key

    def test_scale_section_tiny(self):
        results = perf_smoke.bench_scale(tiny=True)
        assert set(results) == {"tiny", "sharded"}  # fleet_1m skipped under tiny
        streaming = results["tiny"]
        assert streaming["completed"] + streaming["rejected"] == streaming["requests"]
        assert streaming["rejected"] == 0
        assert streaming["requests_per_s"] > 0
        assert len(streaming["schedule_digest"]) == 16
        # O(1)-memory statistics: the sketch footprint is a few hundred
        # buckets regardless of the request count.
        assert 0 < streaming["sketch_buckets"] < 1_000
        assert streaming["sojourn_p50_ns"] <= streaming["sojourn_p95_ns"]
        assert streaming["sojourn_p95_ns"] <= streaming["sojourn_p99_ns"]
        sharded = results["sharded"]
        assert sharded["digest_match"] is True
        assert sharded["completed"] + sharded["rejected"] == sharded["requests"]
        assert sharded["epochs"] >= 1

    def test_check_section_tiny(self):
        results = perf_smoke.bench_check(
            max_schedules=12, max_depth=6, max_branch=2, sampled=3
        )
        assert set(results) == {"explored", "sampled"}
        explored = results["explored"]
        assert explored["schedules"] == 12
        assert explored["distinct_choice_sequences"] == 12
        assert explored["violations"] == 0
        assert explored["schedules_per_s"] > 0
        assert explored["root_max_branching"] >= 2
        assert len(explored["outcome_sha"]) == 16
        sampled = results["sampled"]
        assert sampled["schedules"] == 3
        assert sampled["violations"] == 0
        assert sampled["max_depth_reached"] > 0

    def test_check_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_check(
            max_schedules=8, max_depth=6, max_branch=2, sampled=2
        )
        second = perf_smoke.bench_check(
            max_schedules=8, max_depth=6, max_branch=2, sampled=2
        )
        for key in ("distinct_digests", "outcome_sha", "root_depth", "root_max_branching"):
            assert first["explored"][key] == second["explored"][key], key

    def test_rebalance_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_rebalance(
            fleet_cards=2, fleet_trace_length=16, defrag_cycles=2
        )
        second = perf_smoke.bench_rebalance(
            fleet_cards=2, fleet_trace_length=16, defrag_cycles=2
        )
        assert first["defrag_sweep"]["final_time_ns"] == second["defrag_sweep"]["final_time_ns"]
        assert first["defrag_sweep"]["frames_moved"] == second["defrag_sweep"]["frames_moved"]
        assert (
            first["rebalance_fleet"]["schedule_digest"]
            == second["rebalance_fleet"]["schedule_digest"]
        )
        assert (
            first["rebalance_fleet"]["final_time_ns"]
            == second["rebalance_fleet"]["final_time_ns"]
        )

    def test_faults_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_faults(
            upsets_per_round=4, scrub_rounds=2, fleet_cards=2, fleet_trace_length=16
        )
        second = perf_smoke.bench_faults(
            upsets_per_round=4, scrub_rounds=2, fleet_cards=2, fleet_trace_length=16
        )
        assert (
            first["scrub_sweep"]["final_time_ns"]
            == second["scrub_sweep"]["final_time_ns"]
        )
        assert first["scrub_sweep"]["detected"] == second["scrub_sweep"]["detected"]
        assert (
            first["fault_fleet"]["schedule_digest"]
            == second["fault_fleet"]["schedule_digest"]
        )
        assert (
            first["fault_fleet"]["final_time_ns"]
            == second["fault_fleet"]["final_time_ns"]
        )

    def test_cluster_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_cluster(cards=2, trace_length=16, tenants=2)
        second = perf_smoke.bench_cluster(cards=2, trace_length=16, tenants=2)
        for policy in ("affinity", "round_robin"):
            assert first[policy]["schedule_digest"] == second[policy]["schedule_digest"]
            assert first[policy]["final_time_ns"] == second[policy]["final_time_ns"]

    def test_device_fingerprints_are_deterministic(self):
        first = perf_smoke.bench_device(netlist_bits=8, pipeline_rounds=1, replay_requests=6)
        second = perf_smoke.bench_device(netlist_bits=8, pipeline_rounds=1, replay_requests=6)
        assert (
            first["netlist_exec"]["output_digest"]
            == second["netlist_exec"]["output_digest"]
        )
        assert first["trace_replay"]["final_time_ns"] == second["trace_replay"]["final_time_ns"]
        assert first["trace_replay"]["output_digest"] == second["trace_replay"]["output_digest"]


class TestCheckMode:
    def test_rate_regression_is_flagged_and_fingerprint_mismatch_detected(self):
        baseline = {"section": {"requests_per_s": 100.0, "final_time_ns": 5.0, "elapsed_s": 1.0}}
        fresh_ok = {"section": {"requests_per_s": 80.0, "final_time_ns": 5.0, "elapsed_s": 9.0}}
        problems = []
        perf_smoke._compare(baseline, fresh_ok, 0.5, "root", problems)
        assert problems == []  # 80 >= 100*(1-0.5); elapsed_s ignored

        fresh_slow = {"section": {"requests_per_s": 40.0, "final_time_ns": 5.0}}
        problems = []
        perf_smoke._compare(baseline, fresh_slow, 0.5, "root", problems)
        assert len(problems) == 1 and "requests_per_s" in problems[0]

        fresh_drifted = {"section": {"requests_per_s": 100.0, "final_time_ns": 6.0}}
        problems = []
        perf_smoke._compare(baseline, fresh_drifted, 0.5, "root", problems)
        assert len(problems) == 1 and "fingerprint" in problems[0]

    def test_tiny_prunes_skipped_scale_keys(self, tmp_path, monkeypatch):
        baseline = {
            "tiny": {"requests_per_s": 10.0},
            "fleet_1m": {"requests_per_s": 10.0},
        }
        (tmp_path / perf_smoke.SECTIONS["scale"][1]).write_text(json.dumps(baseline))
        monkeypatch.setattr(perf_smoke, "REPO_ROOT", tmp_path)
        fresh = {"scale": {"tiny": {"requests_per_s": 10.0}}}
        assert perf_smoke.check_against_baselines(fresh, 0.5, tiny=True) == []
        problems = perf_smoke.check_against_baselines(fresh, 0.5, tiny=False)
        assert problems and "fleet_1m" in problems[0]

    def test_tiny_write_mode_refused(self):
        with pytest.raises(SystemExit):
            perf_smoke.main(["--tiny", "--sections", "device"])

    def test_missing_key_is_flagged(self):
        problems = []
        perf_smoke._compare({"a": {"b_per_s": 1.0}}, {"a": {}}, 0.5, "root", problems)
        assert problems and "missing" in problems[0]

    def test_committed_baselines_have_expected_shape(self):
        repo_root = BENCH_DIR.parent
        for section, (_, filename) in perf_smoke.SECTIONS.items():
            path = repo_root / filename
            assert path.exists(), f"{filename} must be committed at the repo root"
            data = json.loads(path.read_text())
            assert isinstance(data, dict) and data

    def test_unknown_section_rejected(self):
        with pytest.raises(SystemExit):
            perf_smoke.main(["--sections", "nonsense"])
