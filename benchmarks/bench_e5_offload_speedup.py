"""E5 — Offload speedup vs. host-only execution.

The motivation of the paper: computationally intensive functions should run
faster on the co-processor than on the host CPU.  The experiment measures
end-to-end time through the host driver (PCI transfers + on-demand loading +
execution) against the host-only software baseline, sweeping the batch size
(how many consecutive calls amortise one reconfiguration) and the payload
size, for a representative subset of functions.

The speedup's *shape* is the result: it grows with the batch as one
reconfiguration is amortised over more calls.  Which functions win from a
single call, which cross over and at what batch, and which never break even
is read off the table, not asserted in advance.

The timed kernel is one warm bulk AES call through the PCI driver.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.baselines import HostOnlyEngine
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.core.host import build_host_system

FUNCTIONS = ["aes128", "sha256", "modexp512", "fir16"]
BATCH_SIZES = [1, 4, 16, 64, 256]
PAYLOAD_BLOCKS = 64  # payload = nominal input size * 64 (bulk data)


def _host_batch_time(host, name, data, batch):
    total = 0.0
    for _ in range(batch):
        total += host.execute(name, data).latency_ns
    return total


def _coprocessor_batch_time(driver, name, data, batch):
    driver.reset_card()
    total = 0.0
    for _ in range(batch):
        total += driver.call(name, data).total_ns
    return total


def _shape(series, crossover):
    """The table's shape in words: which functions win from a single call,
    which cross over and at what batch, and which never break even."""
    single = [name for name, batch in crossover.items() if batch == BATCH_SIZES[0]]
    later = [(name, batch) for name, batch in crossover.items() if batch not in (None, BATCH_SIZES[0])]
    never = [name for name, batch in crossover.items() if batch is None]
    clauses = []
    if single:
        clauses.append(f"{' and '.join(single)} win{'s' * (len(single) == 1)} from a single call")
    clauses.extend(f"{name} loses single calls and wins from batch {batch}" for name, batch in later)
    if never:
        best = ", ".join(
            f"{name} {max(speedup for _, speedup in series[name]):.2f}x" for name in never
        )
        clauses.append(
            f"{' and '.join(never)} never break{'s' * (len(never) == 1)} even "
            f"(best within {BATCH_SIZES[-1]} calls: {best})"
        )
    return "; ".join(clauses)


def _driver(bank):
    """The host driver of a default card holding the sweep's functions."""
    return build_host_system(build_coprocessor(config=CoprocessorConfig(seed=2005), bank=bank.subset(FUNCTIONS)))


def build_report(bank) -> ExperimentReport:
    report = ExperimentReport("E5", "Offload speedup over host-only execution")
    subset = bank.subset(FUNCTIONS)
    driver = _driver(bank)
    host = HostOnlyEngine(subset)

    table = Table(
        "Speedup (host time / co-processor time) vs batch size (bulk payloads)",
        ["function", "payload_KiB"] + [f"batch_{batch}" for batch in BATCH_SIZES],
    )
    series = {}
    crossover = {}
    for name in FUNCTIONS:
        function = subset.by_name(name)
        data = bytes(range(256)) * ((function.spec.input_bytes * PAYLOAD_BLOCKS) // 256 + 1)
        data = data[: function.spec.input_bytes * PAYLOAD_BLOCKS]
        speedups = []
        for batch in BATCH_SIZES:
            host_ns = _host_batch_time(host, name, data, batch)
            copro_ns = _coprocessor_batch_time(driver, name, data, batch)
            speedups.append(host_ns / copro_ns)
        table.add_row(name, len(data) / 1024.0, *speedups)
        series[name] = list(zip([float(batch) for batch in BATCH_SIZES], speedups))
        crossover[name] = next(
            (batch for batch, speedup in zip(BATCH_SIZES, speedups) if speedup >= 1.0), None
        )
    report.add_table(table)
    report.add_figure(
        ascii_line_chart("Speedup vs batch size (1.0 = break-even)", series, width=50, height=12)
    )

    # The first bullet's claim, checked: every function's speedup grows with the batch.
    for name, points in series.items():
        speedups = [speedup for _, speedup in points]
        assert speedups == sorted(speedups), f"{name}'s speedup does not grow with the batch"
    wins = [name for name, batch in crossover.items() if batch is not None]
    report.observe(
        "Offload speedup grows with batch size as the one-time reconfiguration cost is "
        f"amortised; {len(wins)}/{len(FUNCTIONS)} functions reach break-even within "
        f"{BATCH_SIZES[-1]} calls on bulk payloads "
        f"(crossovers: {', '.join(f'{name}@{batch}' for name, batch in crossover.items() if batch)})."
    )
    report.observe(
        "Absolute factors depend on the calibration constants (fabric clock, host clock, "
        f"software slowdown); the shape is the reproducible result: {_shape(series, crossover)}."
    )
    for name, batch in crossover.items():
        report.record_metric(f"crossover_batch_{name}", float(batch) if batch is not None else -1.0)
    return report


def test_e5_offload_speedup(benchmark, bank):
    save_report(build_report(bank))

    driver = _driver(bank)
    bulk = bytes(bank.by_name("aes128").spec.input_bytes * PAYLOAD_BLOCKS)
    driver.call("aes128", bulk)  # warm

    def warm_bulk_call():
        return driver.call("aes128", bulk)

    result = benchmark.pedantic(warm_bulk_call, rounds=3, iterations=1)
    assert result.card_result.hit
