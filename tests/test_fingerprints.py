"""``benchmarks/fingerprints.py`` inside tier-1: the committed values hold.

The subprocess test is the cross-process byte-identity property for every
section at once: each value in ``BENCH_fingerprints.json`` was written by one
process and must ``==`` what a fresh, differently hash-seeded interpreter
computes (a same-process rerun would not catch a salted-``hash()``
regression).  Inside that run every section also executes twice, cold then
warm, and must agree with itself.  The rest pins the comparison.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import fingerprints  # noqa: E402

COMMITTED = {"scale": {"tiny": {"final_time_ns": 5}, "fleet_1m": {"final_time_ns": 9}}}
TINY_RUN = {"scale": {"tiny": {"final_time_ns": 5}}}


def test_committed_fingerprints_hold_in_a_fresh_interpreter():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "fingerprints.py"), "--check", "--tiny"],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONHASHSEED": "random"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_an_edited_leaf_is_named():
    fresh = {"scale": {"tiny": {"final_time_ns": 6}, "fleet_1m": {"final_time_ns": 9}}}
    assert fingerprints.against_committed(COMMITTED, fresh, tiny=False) == [
        "scale.tiny.final_time_ns: 5 != 6"
    ]


def test_a_leaf_missing_from_the_fresh_run_is_named():
    fresh = {"scale": {"tiny": {}, "fleet_1m": {"final_time_ns": 9}}}
    assert fingerprints.against_committed(COMMITTED, fresh, tiny=False) == [
        "scale.tiny.final_time_ns: 5 != '<absent>'"
    ]


def test_a_leaf_missing_from_the_committed_file_is_named():
    fresh = {"scale": {"tiny": {"final_time_ns": 5, "hits": 3}}}
    assert fingerprints.against_committed(COMMITTED, fresh, tiny=True) == [
        "scale.tiny.hits: '<absent>' != 3"
    ]


def test_tiny_does_not_flag_the_skipped_million_request_run():
    assert fingerprints.against_committed(COMMITTED, TINY_RUN, tiny=True) == []
    assert fingerprints.against_committed(COMMITTED, TINY_RUN, tiny=False) == [
        "scale.fleet_1m: {'final_time_ns': 9} != '<absent>'"
    ]
    assert "fleet_1m" in COMMITTED["scale"]  # pruned in a copy, not in the caller's dict


def test_tiny_without_check_refuses_to_write():
    with pytest.raises(SystemExit):
        fingerprints.main(["--tiny"])


def test_a_section_that_disagrees_with_itself_raises():
    runs = iter([{"final_time_ns": 5}, {"final_time_ns": 6}])

    def flaky():
        return next(runs)

    with pytest.raises(AssertionError, match="non-deterministic flaky.*final_time_ns: 5 != 6"):
        fingerprints.twice(flaky)
