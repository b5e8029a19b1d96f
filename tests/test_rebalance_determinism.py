"""Cross-process byte-identity of the rebalance experiments.

Migration schedules fold into the fleet's completion-stream digest (order,
capture, restore, release records all hash in), so an E11 cell — warm-up,
skewed residency, migrations, defrag passes — must reproduce byte-identically
in a fresh interpreter (``tests/test_fingerprints.py`` holds the ``rebalance``
fingerprint section to the same standard, against the committed values).
Same pattern as ``test_faults_determinism``: only a second process catches
salted-hash or dict-order regressions.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_E11_SNIPPET = """
import json, sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
from benchmarks.bench_e11_rebalance import build_trace, defrag_drill, run_cell
from repro.functions.bank import build_default_bank

bank = build_default_bank()
trace = build_trace(bank, 1.2)
fleet, stats = run_cell(bank, trace, "migrate+defrag", 2)
print(repr(fleet.fingerprint()))
print(json.dumps(fleet.rebalance_summary(), sort_keys=True))
print(repr((stats.migration_orders, stats.migrations_completed,
            stats.migration_byte_diffs, stats.latency_percentile(95))))
print(json.dumps(defrag_drill(), sort_keys=True))
"""


def run_snippet(snippet: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCrossProcessDeterminism:
    def test_e11_cell_is_byte_identical_across_processes(self):
        first = run_snippet(_E11_SNIPPET)
        second = run_snippet(_E11_SNIPPET)
        assert first == second
        assert first.strip()
