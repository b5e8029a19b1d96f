"""E1 — Figure 1: the co-processor architecture, exercised end to end.

The paper's only figure is the block diagram: ROM + local RAM, PCI
microcontroller (with configuration, data-input and output-collection
modules and the mini OS), and a partially reconfigurable FPGA.  This
experiment builds the full default card, pushes one request for every
function in the bank through the host driver, and reports, per function, the
footprint and the cold (miss) versus warm (hit) latency — demonstrating that
every block in Figure 1 exists and is on the request path.

The report is byte-identical across processes, and
``tests/test_e1_architecture.py`` holds :func:`build_report` equal to the
committed report in tier-1.

The timed kernel is the warm-path host call (the steady-state operation of
the card).
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor
from repro.core.host import build_host_system


#: Trace component -> the block of Figure 1 it is.
FIGURE_1_BLOCKS = {
    "pci": "PCI",
    "mcu": "microcontroller",
    "rom": "ROM",
    "ram": "RAM",
    "config-module": "configuration module",
    "data-in": "data modules",
    "data-out": "data modules",
    "fpga": "FPGA",
}


def build_traced_driver(config, bank):
    """A host driver over a card built from *config* with tracing on, so the
    trace shows which Figure 1 block each event came from."""
    coprocessor = build_coprocessor(config=config.with_overrides(enable_trace=True), bank=bank)
    return build_host_system(coprocessor)


def build_report(driver, bank) -> ExperimentReport:
    """The whole E1 report from one miss and one hit per function through
    *driver* (a traced card holding *bank*): the footprint table, the block
    table, the observations and the metrics."""
    copro = driver.coprocessor
    report = ExperimentReport("E1", "Figure 1 — agile co-processor architecture, end to end")

    table = Table(
        "Per-function footprint and on-demand latency (through the PCI driver)",
        ["function", "frames", "bitstream_KiB", "stored_KiB", "ratio",
         "miss_latency_us", "hit_latency_us"],
    )
    hit_results = {}
    for function in bank:
        n = function.spec.input_bytes
        data = (bytes(range(256)) * (n // 256 + 1))[:n]
        miss = driver.call(function.name, data)
        hit = driver.call(function.name, data)
        assert hit.output == function.behaviour(data)
        download = copro.download_reports[function.name]
        hit_results[function.name] = hit
        table.add_row(
            function.name,
            int(download["frames"]),
            download["raw_bytes"] / 1024.0,
            download["stored_bytes"] / 1024.0,
            download["compression_ratio"],
            miss.total_ns / 1e3,
            hit.total_ns / 1e3,
        )
    report.add_table(table)

    blocks = Table("Architecture blocks exercised (simulation trace components)", ["block", "events"])
    events_by_component = {}
    for event in copro.trace:
        events_by_component[event.component] = events_by_component.get(event.component, 0) + 1
    for component in FIGURE_1_BLOCKS:
        blocks.add_row(component, events_by_component.get(component, 0))
    report.add_table(blocks)

    resident = copro.loaded_functions()
    report.observe(
        f"All {len(bank)} functions executed correctly on demand; "
        f"{len(resident)} remain resident on the fabric at the end."
    )
    # The Figure 1 claim is a predicate over the block table: a block with no
    # event on the request path fails the experiment.
    events = {block: int(count) for block, count in blocks.rows}
    idle = [block for block, count in events.items() if count == 0]
    assert not idle, f"blocks of Figure 1 with no event on the request path: {idle}"
    named = dict.fromkeys(FIGURE_1_BLOCKS[block] for block in events)  # one "data modules"
    report.observe(
        f"Every block of Figure 1 ({', '.join(named)}) appears on the request path."
    )
    report.record_metric("functions", len(bank))
    report.record_metric("resident_at_end", len(resident))
    report.record_metric("fpga_frames", copro.geometry.frame_count)
    return report


def test_e1_architecture(benchmark, default_config, bank):
    driver = build_traced_driver(default_config, bank)
    save_report(build_report(driver, bank))

    # Timed kernel: the warm (hit) path through the whole stack.
    warm_function = "crc32"
    warm_data = bytes(range(64))

    def warm_call():
        return driver.call(warm_function, warm_data)

    result = benchmark(warm_call)
    assert result.output == bank.by_name(warm_function).behaviour(warm_data)
