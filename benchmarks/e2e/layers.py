"""Host time per layer, measured from outside the program.

Two instruments, both used only in the traced pass:

* :func:`fold` folds a ``cProfile`` table by package of ``src/repro/``.  A
  function's self time (``tottime``) and call count go to the layer its file
  belongs to; a built-in or standard-library function is charged, caller edge
  by caller edge, to the ``repro`` layer that called it.  What no ``repro``
  caller can be charged with (the harness, stdlib calling stdlib) is ``other``.
* :func:`layer_calls` times one public entry point per layer directly,
  uninstrumented, so the profiler's distortion (it taxes every Python call but
  no work inside C) can be read off by comparing the two.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

#: The packages of ``src/repro/`` that are layers of the simulated system.
LAYERS = (
    "sim", "cluster", "core", "pci", "mcu", "memory", "bitstream",
    "fpga", "functions", "faults", "net", "obs", "workloads", "analysis",
)
OTHER = "other"


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = parts[index + 1]
            return package if package in LAYERS else None
    return None


def fold(stats: Dict[tuple, tuple], ops: int) -> Dict[str, float]:
    """Fold a ``pstats.Stats(...).stats`` table into per-layer metrics.

    Returns ``<layer>.self_share`` (host; shares sum to 1) and
    ``<layer>.calls_per_op`` (exact function-call count per operation) for
    every layer and ``other``, plus ``total.calls_per_op``.
    """
    seconds = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
            continue
        charged_s = 0.0
        charged_n = 0
        for (caller_file, _l, _n), (edge_calls, _ecc, edge_tottime, _ect) in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer is not None:
                seconds[caller_layer] += edge_tottime
                calls[caller_layer] += edge_calls
                charged_s += edge_tottime
                charged_n += edge_calls
        seconds[OTHER] += tottime - charged_s
        calls[OTHER] += ncalls - charged_n
    total_s = sum(seconds.values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_share"] = seconds[layer] / total_s
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics["total.calls_per_op"] = sum(calls.values()) / ops
    return metrics


# --------------------------------------------------------------- layer_calls
def _rate(step: Callable[[], int], budget_s: float) -> Tuple[int, float]:
    """Call *step* until *budget_s* has passed; returns (units done, seconds)."""
    done = 0
    start = time.perf_counter()
    while True:
        done += step()
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return done, elapsed


def _config_corpus() -> bytes:
    """Real configuration data: the readback of a card with AES and SHA-1 loaded."""
    from repro.core.builder import build_host_driver
    from repro.core.config import CoprocessorConfig

    driver = build_host_driver(
        config=CoprocessorConfig(fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8),
        functions=["aes128", "sha1"],
    )
    driver.preload("aes128")
    driver.preload("sha1")
    memory = driver.coprocessor.device.memory
    return b"".join(memory.read_frame(address) for address in memory.configured_frames())


def layer_calls(budget_s: float) -> Dict[str, float]:
    """Direct host timings of one public entry point per layer (*budget_s* each)."""
    from repro.analysis.sketch import StreamingQuantileSketch
    from repro.bitstream.codecs import HuffmanCodec, LZ77Codec
    from repro.core.builder import build_host_driver
    from repro.core.config import SMALL_CONFIG
    from repro.functions.bank import build_small_bank
    from repro.obs import Observability
    from repro.sim.kernel import Simulator, Timeout

    metrics: Dict[str, float] = {}

    def kernel_round() -> int:
        simulator = Simulator()

        def ticker(period: float):
            for _ in range(200):
                yield Timeout(period)

        for index in range(50):
            simulator.spawn(ticker(10.0 + index), name=f"ticker{index}")
        simulator.run()
        return simulator.events_dispatched

    events, elapsed = _rate(kernel_round, budget_s)
    metrics["sim.kernel_events_per_s"] = events / elapsed

    corpus = _config_corpus()
    for label, codec in (("lz77", LZ77Codec()), ("huffman", HuffmanCodec())):
        blob = codec.compress(corpus)
        if codec.decompress(blob) != corpus:
            raise AssertionError(f"{label} round trip differs")

        def decompress(codec=codec, blob=blob) -> int:
            codec.decompress(blob)
            return len(corpus)

        decoded, elapsed = _rate(decompress, budget_s)
        metrics[f"bitstream.{label}_decompress_MBps"] = decoded / elapsed / 1e6

    bank = build_small_bank()
    adder = bank.by_name("adder8")
    executor = adder.executor(SMALL_CONFIG.geometry())
    payload = bytes(range(adder.spec.input_bytes))

    def netlist_run() -> int:
        executor.run(payload)
        return 1

    runs, elapsed = _rate(netlist_run, budget_s)
    metrics["fpga.netlist_runs_per_s"] = runs / elapsed

    driver = build_host_driver(config=SMALL_CONFIG, bank=bank)
    crc_payload = bytes(range(bank.by_name("crc32").spec.input_bytes))
    driver.call("crc32", crc_payload)

    def call_hit() -> int:
        driver.call("crc32", crc_payload)
        return 1

    hits, elapsed = _rate(call_hit, budget_s)
    metrics["core.call_hit_us"] = elapsed / hits * 1e6

    def call_miss() -> int:
        driver.evict("crc32")
        driver.call("crc32", crc_payload)
        return 1

    misses, elapsed = _rate(call_miss, budget_s)
    metrics["core.call_miss_us"] = elapsed / misses * 1e6

    sketch = StreamingQuantileSketch()
    values = [1_000.0 + 37.0 * index for index in range(1_000)]

    def sketch_adds() -> int:
        add = sketch.add
        for value in values:
            add(value)
        return len(values)

    adds, elapsed = _rate(sketch_adds, budget_s)
    metrics["analysis.sketch_add_ns"] = elapsed / adds * 1e9

    def span_records() -> int:
        record = Observability().tracer.record
        for index in range(1_000):
            record("bench.span", index, None, 10.0 * index, 10.0 * index + 5.0)
        return 1_000

    spans, elapsed = _rate(span_records, budget_s)
    metrics["obs.span_ns"] = elapsed / spans * 1e9
    return metrics


__all__ = ["LAYERS", "OTHER", "fold", "layer_calls", "layer_of"]
