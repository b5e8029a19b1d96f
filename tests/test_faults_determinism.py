"""Cross-process byte-identity of the fault experiments.

``SeededRandom.fork`` is process-stable (FNV-1a, not salted ``hash()``), so a
fault environment — upset times, targets, kills, scrub schedules — must
reproduce byte-identically in a fresh interpreter.  This test actually spawns
two fresh interpreters on the E10 cell machinery at a tiny size and compares
(``tests/test_fingerprints.py`` does the same for the ``faults`` fingerprint
section, against the committed values).  A same-process rerun would not catch
salted-hash regressions; only a second process does.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_E10_SNIPPET = """
import json, sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
from benchmarks.bench_e10_reliability import build_trace, run_cell
from repro.functions.bank import build_default_bank

bank = build_default_bank()
trace = build_trace(bank, duration_ns=2e6)
fleet, stats = run_cell(bank, trace, "affinity", 10_000.0, 100_000.0, kill=True)
print(repr(fleet.fingerprint()))
print(json.dumps(fleet.fault_summary(), sort_keys=True))
print(repr((stats.failovers, stats.hazard_completions, stats.heals_completed)))
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
    def test_e10_cell_is_byte_identical_across_processes(self):
        first = run_snippet(_E10_SNIPPET)
        second = run_snippet(_E10_SNIPPET)
        assert first == second
        assert first.strip()
