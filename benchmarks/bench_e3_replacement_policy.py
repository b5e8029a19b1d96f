"""E3 — Frame replacement policy comparison.

The paper's mini OS evicts the algorithm with the oldest access time stamp
(per-algorithm LRU).  This experiment runs the same traces through the same
card configured with LRU, FIFO, LFU and Random — the policies a card can run
— on a fabric deliberately smaller than the working set, and reports hit
rate, evictions and mean service latency per (policy, trace) pair.

Its Belady row is a policy of this benchmark, not of the card: the
farthest-next-use rule reads the requests still to come, which no mini OS
can, so ``offline_policies.BeladyPolicy`` is built with the whole trace and
installed on a built card by assignment.  It is clairvoyant but not optimal
here: functions span different frame counts, so evicting the farthest next
use can free too many frames or too few; where a function is placed does not
change which ones stay resident.

The timed kernel is one full LRU trace run (the steady-state decision loop of
the mini OS).
"""

from __future__ import annotations


from benchmarks.conftest import save_report
from benchmarks.offline_policies import BeladyPolicy, SteppedEngine
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.ondemand import TraceRunner
from repro.workloads import phased_trace, round_robin_trace, zipf_trace

#: Functions whose combined footprint (~63 frames) exceeds the 32-frame fabric
#: used here, so replacement decisions actually happen.
WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]
POLICIES = ["lru", "fifo", "lfu", "random", "belady"]
TRACE_LENGTH = 300


def _traces(bank, seed=2005):
    subset = bank.subset(WORKING_SET)
    return {
        "zipf(1.2)": zipf_trace(subset, TRACE_LENGTH, skew=1.2, seed=seed),
        "phased": phased_trace(subset, TRACE_LENGTH, phase_length=40, working_set=3, seed=seed),
        "round-robin": round_robin_trace(subset, TRACE_LENGTH, repeats_per_function=4, seed=seed),
    }


def _run(bank, policy, trace):
    """One (policy, trace) cell on E3's 32-frame card: the trace's result and the card."""
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8,
        replacement_policy="lru" if policy == BeladyPolicy.name else policy, seed=2005,
    )
    copro = build_coprocessor(config=config, bank=bank.subset(WORKING_SET))
    engine = copro
    if policy == BeladyPolicy.name:
        engine = SteppedEngine(copro, BeladyPolicy([request.function for request in trace.requests]))
    return TraceRunner(engine).run(trace), copro


def build_report(bank) -> ExperimentReport:
    """The whole E3 report: every (trace, policy) row, the chart and the metrics."""
    report = ExperimentReport("E3", "Frame replacement policy comparison")
    table = Table(
        "Hit rate / evictions / mean latency per policy and trace",
        ["trace", "policy", "hit_rate", "evictions", "mean_latency_us", "p95_latency_us"],
    )
    hit_rates = {}
    for trace_name, trace in _traces(bank).items():
        for policy in POLICIES:
            result, copro = _run(bank, policy, trace)
            table.add_row(
                trace_name,
                policy,
                result.hit_rate,
                copro.stats.evictions,
                result.mean_latency_ns / 1e3,
                result.latency_percentile(95) / 1e3,
            )
            hit_rates[(trace_name, policy)] = result.hit_rate
    report.add_table(table)

    zipf_rates = {policy: hit_rates[("zipf(1.2)", policy)] for policy in POLICIES}
    report.add_figure(ascii_bar_chart("Hit rate on the Zipf trace", zipf_rates))

    lru_mean = sum(hit_rates[(trace, "lru")] for trace in ("zipf(1.2)", "phased", "round-robin")) / 3
    random_mean = sum(hit_rates[(trace, "random")] for trace in ("zipf(1.2)", "phased", "round-robin")) / 3
    belady_mean = sum(hit_rates[(trace, "belady")] for trace in ("zipf(1.2)", "phased", "round-robin")) / 3
    report.observe(
        f"The paper's LRU policy averages a {lru_mean:.2f} hit rate across traces, "
        f"versus {random_mean:.2f} for random eviction and {belady_mean:.2f} for "
        f"Belady's farthest-next-use heuristic."
    )
    report.record_metric("lru_mean_hit_rate", lru_mean)
    report.record_metric("random_mean_hit_rate", random_mean)
    report.record_metric("belady_mean_hit_rate", belady_mean)
    return report


def test_e3_replacement_policies(benchmark, bank):
    save_report(build_report(bank))

    trace = _traces(bank)["zipf(1.2)"]

    def run_lru_trace():
        result, _ = _run(bank, "lru", trace)
        return result

    result = benchmark.pedantic(run_lru_trace, rounds=3, iterations=1)
    assert result.requests == TRACE_LENGTH
