"""Cross-process byte-identity of the network front door.

The front door adds three new sources of per-run randomness (link loss and
jitter draws, backoff jitter) and two new digest record kinds (net verdicts,
sheds), all rooted in ``SeededRandom`` forks — so an E12 cell must reproduce
byte-identically in a fresh interpreter (``tests/test_fingerprints.py`` holds
the ``net`` fingerprint section to the same standard, against the committed
values).  Same pattern as ``test_rebalance_determinism``: only a second
process catches salted-hash or dict-order regressions.

The E12 snippet runs one reference overload cell and one kill-drill cell
(not the full 27-cell sweep — the suite must stay fast); the full-report
byte-identity run is the driver-level check documented in the benchmark.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_E12_SNIPPET = """
import sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
sys.path.insert(0, "tests")
from frontdoor_fingerprint import frontdoor_fingerprint
from benchmarks.bench_e12_frontdoor import (
    KILL_LOSS, KILL_OVERLOAD, REFERENCE_LOSS, REFERENCE_OVERLOAD, run_cell,
)
from repro.functions.bank import build_default_bank

bank = build_default_bank()
frontdoor, stats = run_cell(bank, REFERENCE_OVERLOAD, REFERENCE_LOSS, "retry+shed")
print(repr(frontdoor_fingerprint(frontdoor)))
print(repr(sorted(frontdoor.link_summary().items())))
print(repr((stats.latency_percentile(95), stats.net_latency_percentile(95),
            stats.net_timeouts, stats.breaker_opens,
            sorted(stats.per_priority_shed.items()))))
frontdoor, stats = run_cell(bank, KILL_OVERLOAD, KILL_LOSS, "retry", kill=True)
print(repr(frontdoor_fingerprint(frontdoor)))
print(repr((stats.card_failures, stats.heals_completed, stats.failovers,
            stats.duplicates_served, stats.duplicates_suppressed)))
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
    def test_e12_cells_are_byte_identical_across_processes(self):
        first = run_snippet(_E12_SNIPPET)
        second = run_snippet(_E12_SNIPPET)
        assert first == second
        assert first.strip()
