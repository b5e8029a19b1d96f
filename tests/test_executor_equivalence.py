"""Equivalence of the compiled netlist executor against the seed evaluator.

The compiled :class:`NetlistExecutor` must produce identical
``(output_bytes, cycles)`` to the seed's dict-walking evaluator
(``tests/oracles/reference_executor.py``) on any placed netlist for any
input.  These property tests
drive both through randomized netlists, the generator-built netlists, and the
bank's real functions — including functions whose frames have been
*relocated* (defragmented in place, or migrated to another card), so frame
relocation can never silently change function semantics.
"""

import random

import pytest

from oracles.reference_executor import ReferenceNetlistExecutor
from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.core.host import build_host_system
from repro.fpga.executor import NetlistExecutor
from repro.fpga.geometry import TEST_GEOMETRY
from repro.fpga.lut import LookUpTable
from repro.fpga.netlist import Netlist
from repro.functions.bank import build_default_bank, build_small_bank
from repro.functions.netgen import (
    build_adder_netlist,
    build_parity_netlist,
    build_popcount_netlist,
)


def _random_netlist(rng: random.Random, index: int) -> Netlist:
    """A random DAG of LUTs."""
    netlist = Netlist(f"random-{index}")
    nets = [netlist.add_input(f"i{j}") for j in range(rng.randrange(1, 9))]
    for j in range(rng.randrange(1, 25)):
        width = rng.randrange(1, 5)
        fanin = [rng.choice(nets) for _ in range(width)]
        nets.append(
            netlist.add_lut(f"l{j}", LookUpTable(width, rng.randrange(1 << (1 << width))), fanin)
        )
    for net in rng.sample(nets, rng.randrange(1, min(8, len(nets)) + 1)):
        netlist.add_output(net)
    return netlist


def _assert_equivalent(netlist: Netlist, rng: random.Random, runs: int = 6):
    compiled = NetlistExecutor(netlist)
    reference = ReferenceNetlistExecutor(netlist)
    input_bytes = (len(netlist.inputs) + 7) // 8
    for _ in range(runs):
        data = bytes(rng.randrange(256) for _ in range(input_bytes))
        assert compiled.run(data) == reference.run(data)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_combinational(self, seed):
        rng = random.Random(1000 + seed)
        for index in range(12):
            _assert_equivalent(_random_netlist(rng, index), rng)


class TestGeneratorNetlistEquivalence:
    @pytest.mark.parametrize(
        "builder,arg",
        [
            (build_adder_netlist, 8),
            (build_adder_netlist, 16),
            (build_parity_netlist, 32),
            (build_popcount_netlist, 8),
        ],
    )
    def test_exhaustive_small_inputs(self, builder, arg):
        netlist = builder(TEST_GEOMETRY, arg)
        compiled = NetlistExecutor(netlist)
        reference = ReferenceNetlistExecutor(netlist)
        rng = random.Random(7)
        input_bytes = (len(netlist.inputs) + 7) // 8
        for _ in range(64):
            data = bytes(rng.randrange(256) for _ in range(input_bytes))
            assert compiled.run(data) == reference.run(data)

    def test_bank_netlist_functions_match_reference_behaviour(self):
        geometry = TEST_GEOMETRY
        rng = random.Random(5)
        for function in build_default_bank():
            netlist = function.cached_netlist(geometry)
            if netlist is None:
                continue
            executor = function.executor(geometry)
            assert isinstance(executor, NetlistExecutor)
            reference = ReferenceNetlistExecutor(netlist)
            data = bytes(rng.randrange(256) for _ in range(function.spec.input_bytes))
            assert executor.run(data) == reference.run(data)


class TestRelocatedFunctionEquivalence:
    """Relocation must never change semantics: the differential gate.

    Both relocation paths — in-card defragmentation and cross-card
    migration — are equivalence-fuzzed against the seed evaluator *after*
    the move, through the full card execute path (staging, feed, fabric,
    collect), not just the bound executor object.
    """

    def _netlist_functions(self, coprocessor):
        return [
            function
            for function in coprocessor.bank
            if function.cached_netlist(coprocessor.geometry) is not None
        ]

    def _assert_card_matches_reference(self, coprocessor, function, rng, runs=6):
        netlist = function.cached_netlist(coprocessor.geometry)
        reference = ReferenceNetlistExecutor(netlist)
        for _ in range(runs):
            data = bytes(rng.randrange(256) for _ in range(function.spec.input_bytes))
            assert coprocessor.execute(function.name, data).output == reference.run(data)[0]

    def test_defragmented_functions_match_reference(self):
        coprocessor = build_coprocessor(
            config=SMALL_CONFIG.with_overrides(seed=29), bank=build_small_bank()
        )
        coprocessor.enable_defrag()
        names = coprocessor.bank.names()
        for name in names:
            coprocessor.preload(name)
        # Evict the multi-frame function at the front: the remaining ones sit
        # behind a hole, so compaction must relocate every one of them.
        coprocessor.evict(names[0])
        survivors = names[1:]
        regions_before = {
            name: list(coprocessor.device.region_of(name)) for name in survivors
        }
        result = coprocessor.defrag()
        assert result.moves > 0  # the pass actually relocated something
        moved = [
            name
            for name in survivors
            if list(coprocessor.device.region_of(name)) != regions_before[name]
        ]
        assert moved
        rng = random.Random(31)
        for function in self._netlist_functions(coprocessor):
            self._assert_card_matches_reference(coprocessor, function, rng)

    def test_migrated_functions_match_reference(self):
        source = build_host_system(
            build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=29), bank=build_small_bank())
        )
        dest = build_host_system(
            build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=37), bank=build_small_bank())
        )
        # Fragment the destination first so restores land on shifted frames.
        dest.preload("crc32")
        dest.preload("adder8")
        dest.evict("crc32")
        rng = random.Random(41)
        for function in self._netlist_functions(source.coprocessor):
            source.preload(function.name)
            source.migrate_function_to(function.name, dest)
            assert dest.card.is_resident(function.name)
            self._assert_card_matches_reference(dest.coprocessor, function, rng)

    def test_migration_roundtrip_back_to_source_matches_reference(self):
        cards = [
            build_host_system(
                build_coprocessor(
                    config=SMALL_CONFIG.with_overrides(seed=seed), bank=build_small_bank()
                )
            )
            for seed in (43, 47)
        ]
        rng = random.Random(53)
        function = next(
            f for f in self._netlist_functions(cards[0].coprocessor)
        )
        cards[0].preload(function.name)
        cards[0].migrate_function_to(function.name, cards[1])
        cards[1].migrate_function_to(function.name, cards[0])
        assert cards[0].card.is_resident(function.name)
        self._assert_card_matches_reference(cards[0].coprocessor, function, rng)


class TestCompiledExecutorState:
    def test_executor_memoised_per_geometry(self):
        function = next(
            f for f in build_default_bank() if f.cached_netlist(TEST_GEOMETRY) is not None
        )
        assert function.executor(TEST_GEOMETRY) is function.executor(TEST_GEOMETRY)
