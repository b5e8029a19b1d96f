"""End-to-end integration tests across the whole stack.

These are the tests that correspond most directly to the paper's proof of
concept: the full architecture of Figure 1, exercised through the host
driver, with the mini OS swapping algorithms on demand.
"""

import pytest

from repro.baselines import FullReconfigEngine, HostOnlyEngine, StaticFixedEngine
from repro.core.builder import build_coprocessor, build_host_driver
from repro.core.config import CoprocessorConfig, SMALL_CONFIG
from repro.core.ondemand import TraceRunner
from repro.functions.bank import build_small_bank
from repro.workloads import ipsec_gateway_trace, round_robin_trace, zipf_trace


@pytest.mark.integration
class TestFigure1Architecture:
    """Every block of the paper's block diagram exists and is exercised."""

    def test_blocks_exist_and_are_wired(self, small_coprocessor):
        copro = small_coprocessor
        # Memory block: ROM with two-ended layout + local RAM.
        assert copro.rom.capacity_bytes > 0 and copro.ram.capacity_bytes > 0
        assert len(copro.rom.record_table) == len(copro.bank)
        # Microcontroller block with the config module and the mini OS.
        assert copro.mcu.config_module is copro.config_module
        assert copro.mcu.minios is copro.minios
        # Partially reconfigurable FPGA.
        assert copro.device.geometry.frame_count > 0

    def test_end_to_end_request_touches_every_block(self, small_config, small_bank):
        copro = build_coprocessor(config=small_config.with_overrides(enable_trace=True), bank=small_bank)
        copro.execute("crc32", b"touch every block")
        components = {event.component for event in copro.trace}
        for expected in ("rom", "ram", "fpga", "config-module", "data-in", "data-out", "mcu"):
            assert expected in components, expected

    def test_full_default_system_over_pci(self, default_bank):
        driver = build_host_driver(bank=default_bank)
        for name in ("aes128", "sha256", "crc32"):
            function = default_bank.by_name(name)
            data = bytes(range(function.spec.input_bytes))
            result = driver.call(name, data)
            assert result.output == function.behaviour(data)
        # Residency is visible across calls: repeat is a hit.
        repeat = driver.call("aes128", bytes(16))
        assert repeat.card_result.hit


@pytest.mark.integration
class TestOnDemandSwapping:
    def test_thrashing_workload_stays_correct(self):
        config = SMALL_CONFIG.with_overrides(fabric_columns=2, fabric_rows=16, clb_rows_per_frame=4)
        bank = build_small_bank()
        copro = build_coprocessor(config=config, bank=bank)
        trace = round_robin_trace(bank, 48, seed=2)
        for request in trace:
            result = copro.execute(request.function, request.payload)
            expected = bank.by_name(request.function).behaviour(request.payload)
            assert result.output == expected
        assert copro.stats.evictions > 0
        assert copro.stats.hit_rate < 1.0

    def test_policy_choice_changes_behaviour_under_pressure(self, default_bank):
        # A bank subset whose combined footprint exceeds a small fabric, so
        # the replacement policy is actually exercised.
        functions = ["sha1", "crc32", "fir16", "strmatch", "bitonic64"]
        results = {}
        for policy in ("lru", "fifo", "lfu", "random"):
            config = CoprocessorConfig(
                fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8,
                replacement_policy=policy, seed=3,
            )
            bank = default_bank.subset(functions)
            copro = build_coprocessor(config=config, bank=bank)
            trace = zipf_trace(bank, 120, skew=1.2, seed=3)
            results[policy] = (TraceRunner(copro).run(trace).hit_rate, copro.stats.evictions)
        # (hit rate, evictions) over the 120 calls: every policy differs, and
        # the paper's LRU is the worst of the four on this trace.
        assert results == {
            "lru": (63 / 120, 55),
            "fifo": (69 / 120, 49),
            "lfu": (67 / 120, 51),
            "random": (65 / 120, 53),
        }
        assert len(set(results.values())) == len(results)

    def test_agile_beats_full_reconfiguration_on_switching_workload(self):
        bank = build_small_bank()
        config = SMALL_CONFIG.with_overrides(seed=5)
        trace = round_robin_trace(bank, 32, repeats_per_function=2, seed=5)
        agile = build_coprocessor(config=config, bank=bank)
        full = FullReconfigEngine(config, bank)
        agile_result = TraceRunner(agile).run(trace)
        full_result = TraceRunner(full).run(trace)
        assert agile_result.mean_latency_ns < full_result.mean_latency_ns

    def test_baselines_and_coprocessor_agree_on_outputs(self):
        bank = build_small_bank()
        config = SMALL_CONFIG.with_overrides(seed=6)
        engines = {
            "agile": build_coprocessor(config=config, bank=bank),
            "host": HostOnlyEngine(bank),
            "static": StaticFixedEngine(config, bank),
        }
        data = bytes(range(24))
        outputs = {name: engine.execute("crc32", data).output for name, engine in engines.items()}
        assert len(set(outputs.values())) == 1


@pytest.mark.integration
class TestRealisticApplication:
    def test_ipsec_gateway_on_default_card(self, default_bank):
        copro = build_coprocessor(bank=default_bank)
        trace = ipsec_gateway_trace(default_bank, packets=40, seed=9)
        result = TraceRunner(copro).run(trace)
        assert result.requests == len(trace)
        assert result.hit_rate > 0.5  # the cipher/hash working set fits and stays resident
        assert copro.stats.requests == len(trace)
