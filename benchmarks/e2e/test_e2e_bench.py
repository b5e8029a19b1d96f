"""Self-test of the perf ledger (collected by the tier-1 suite).

Runs the real runner at one hundredth of the size and checks the contract in
``BENCHMARK.json``: every workload and metric it names is emitted, names and
counts are within the limits, exact numbers repeat exactly and move with the
seed only where they should, the profile fold charges built-ins to their
caller, and the opt-in detection copes with builders that lost the kwargs.
No assertion here depends on how fast the host is.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import shapes  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TWO_WORKLOADS = ["fleet_hit_default", "card_reconfig_churn"]


def run_cli(*arguments: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *arguments],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def tiny_ledger(path: pathlib.Path, *arguments: str) -> dict:
    done = run_cli("--scale", "0.01", "--seconds", "0.2", "--out", str(path), *arguments)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return {"stdout": done.stdout, "ledger": json.loads(path.read_text())}


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> dict:
    return tiny_ledger(tmp_path_factory.mktemp("ledger") / "all.json", "--reps", "2")


def test_contract_is_within_the_limits(contract):
    assert sorted(contract) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer") for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [metric for metric in contract["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in contract["end_to_end"])
    assert [workload["name"] for workload in contract["workloads"]] == [shape.name for shape in shapes.SHAPES]
    assert [workload["why"] for workload in contract["workloads"]] == [shape.why for shape in shapes.SHAPES]


def test_every_named_workload_and_metric_is_emitted_with_its_unit(contract, full_run):
    ledger, stdout = full_run["ledger"], full_run["stdout"]
    assert sorted(ledger["workloads"]) == sorted(workload["name"] for workload in contract["workloads"])
    for entry in ledger["workloads"].values():
        assert list(entry["end_to_end"]) == [metric["name"] for metric in contract["end_to_end"]]
        assert list(entry["per_layer"]) == [metric["name"] for metric in contract["per_layer"]]
        assert all(row["median"] != 0 for row in entry["end_to_end"].values())
    for metric in contract["end_to_end"] + contract["per_layer"]:
        printed = re.search(
            rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s+\({metric['better']} is better\)",
            stdout, re.MULTILINE,
        )
        assert printed, metric["name"]
    shares = ledger["workloads"]["fleet_hit_default"]["per_layer"]
    assert sum(shares[f"{layer}.self_share"] for layer in layers.LAYERS + (layers.OTHER,)) == pytest.approx(1.0)
    manifest = ledger["manifest"]
    assert {"git_sha", "python", "nproc", "seed", "scale"} <= set(manifest)
    assert "stats_mode" in ledger["workloads"]["fleet_hit_scale"]["optins_applied"]
    assert ledger["workloads"]["fleet_hit_default"]["optins_applied"] == []


def test_driver_form_prints_one_result_line(contract):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_cli("--workload", "fleet_hit_default", "--seed", "5", "--seconds", "0.2",
                       "--scale", "0.01", "--trace", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert {name: value["unit"] for name, value in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in contract[section]
        }


def test_exact_metrics_repeat_and_move_with_the_seed_only_where_they_should(full_run, tmp_path):
    first = full_run["ledger"]["workloads"]
    again = tiny_ledger(tmp_path / "again.json", "--reps", "1", "--workloads", *TWO_WORKLOADS)["ledger"]["workloads"]
    other = tiny_ledger(tmp_path / "other.json", "--reps", "1", "--seed", "29",
                        "--workloads", *TWO_WORKLOADS)["ledger"]["workloads"]
    for name in TWO_WORKLOADS:
        assert again[name]["simulated"] == first[name]["simulated"]
        assert again[name]["digest"] == first[name]["digest"]
        slack = compare.CALLS_TOLERANCE * first[name]["per_layer"]["total.calls_per_op"]
        for metric in first[name]["per_layer_exact"]:
            # Call counts depend on object addresses by a few in ten thousand.
            tolerance = slack if metric.endswith(".calls_per_op") else 0.0
            assert abs(again[name]["per_layer"][metric] - first[name]["per_layer"][metric]) <= tolerance, metric
        # The arrival process is drawn from the seed; the work per operation is not.
        assert other[name]["simulated"]["sim_makespan_ns"] != first[name]["simulated"]["sim_makespan_ns"]
        assert other[name]["per_layer"]["fpga.executions_per_op"] == first[name]["per_layer"]["fpga.executions_per_op"] == 1.0
    assert other["fleet_hit_default"]["per_layer"]["pci.transactions_per_op"] == \
        first["fleet_hit_default"]["per_layer"]["pci.transactions_per_op"]


def test_fold_charges_builtins_to_their_caller():
    kernel = ("/x/src/repro/sim/kernel.py", 10, "run")
    stats_py = ("/x/src/repro/cluster/stats.py", 20, "record")
    stdlib = ("/usr/lib/python3/random.py", 30, "expovariate")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    log = ("~", 0, "<built-in method math.log>")
    table = {
        kernel: (1, 1, 2.0, 9.0, {}),
        stats_py: (4, 4, 1.0, 1.0, {kernel: (4, 4, 1.0, 1.0)}),
        # 3 s of heappush: 2 s called from the kernel, 1 s from cluster.
        heappush: (30, 30, 3.0, 3.0, {kernel: (20, 20, 2.0, 2.0), stats_py: (10, 10, 1.0, 1.0)}),
        stdlib: (5, 5, 1.0, 2.0, {kernel: (5, 5, 1.0, 2.0)}),
        # a built-in called by the standard library has no repro caller.
        log: (5, 5, 1.0, 1.0, {stdlib: (5, 5, 1.0, 1.0)}),
    }
    folded = layers.fold(table, ops=10)
    assert folded["sim.self_share"] == pytest.approx((2.0 + 2.0 + 1.0) / 8.0)
    assert folded["cluster.self_share"] == pytest.approx((1.0 + 1.0) / 8.0)
    assert folded["other.self_share"] == pytest.approx(1.0 / 8.0)
    assert folded["sim.calls_per_op"] == (1 + 20 + 5) / 10
    assert folded["cluster.calls_per_op"] == (4 + 10) / 10
    assert folded["total.calls_per_op"] == 45 / 10
    assert layers.layer_of("/x/src/repro/check/explorer.py") is None
    assert layers.layer_of("/x/src/repro/__init__.py") is None


def test_optins_are_passed_only_while_the_signature_offers_them():
    def builder_after_the_twins_are_gone(cards=4, config=None, bank=None, policy="affinity", queue_depth=8):
        return None

    def builder_with_one_left(cards=4, stats_mode="reservoir"):
        return None

    applied: list = []
    assert shapes.offered(builder_after_the_twins_are_gone, shapes.SCALE_OPTINS, applied) == {}
    assert applied == []
    assert shapes.offered(builder_with_one_left, shapes.SCALE_OPTINS, applied) == {"stats_mode": "sketch"}
    assert applied == ["stats_mode"]


def test_compare_applies_the_bounds():
    def row(*samples):
        values = sorted(samples)
        middle = values[len(values) // 2]
        return {"median": middle, "q1": values[0], "q3": values[-1], "samples": list(samples)}

    steady = row(100.0, 101.0, 102.0)
    assert compare.judge_host(steady, row(100.5, 101.5, 99.5), "higher", 0.10) == "unchanged"
    assert compare.judge_host(steady, row(80.0, 81.0, 82.0), "higher", 0.10) == "regressed"
    assert compare.judge_host(steady, row(120.0, 121.0, 122.0), "higher", 0.10) == "improved"
    assert compare.judge_host(steady, row(120.0, 121.0, 122.0), "lower", 0.10) == "regressed"
    noisy = row(80.0, 100.0, 120.0)
    assert compare.judge_host(noisy, row(90.0, 100.0, 110.0), "higher", 0.10) == "unresolved"
    assert compare.judge_host(noisy, row(150.0, 160.0, 170.0), "higher", 0.10) == "improved"
    assert compare.judge_simulated(1000.0, 1000.5, "lower") == "unchanged"
    assert compare.judge_simulated(1000.0, 1002.0, "lower") == "regressed"
    assert compare.judge_simulated(0.90, 0.80, "higher") == "regressed"


def test_compare_mode_reads_two_ledgers(full_run, tmp_path, contract):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(full_run["ledger"]))
    rows = compare.compare(full_run["ledger"], full_run["ledger"], contract)
    assert len(rows) == len(contract["workloads"]) * (4 + 7)
    assert all(row["status"] == "unchanged" for row in rows if row["unit"] == "sim")
    done = run_cli("--compare", str(path), str(path))
    assert "summary:" in done.stdout and "regressed" not in done.stdout


def test_without_the_package_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "fleet_hit_scale", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
