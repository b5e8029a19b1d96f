"""Tests for netlist and behavioural executors."""

import pytest

from oracles.luts import logic_xor
from oracles.reference_executor import bits_to_bytes, bytes_to_bits
from repro.fpga.executor import BehaviouralExecutor, CycleModel, NetlistExecutor
from repro.fpga.errors import ExecutionError
from repro.fpga.netlist import Netlist
from repro.functions.netgen import build_adder_netlist, build_parity_netlist, build_popcount_netlist


class TestBitHelpers:
    def test_round_trip(self):
        data = bytes([0b10110010, 0xFF, 0x00])
        bits = bytes_to_bits(data, 24)
        assert bits_to_bytes(bits) == data

    def test_truncation_and_padding(self):
        bits = bytes_to_bits(b"\xff", 4)
        assert bits == [True, True, True, True]
        assert bytes_to_bits(b"", 3) == [False, False, False]


class TestNetlistExecutor:
    def test_combinational_xor(self, tiny_geometry):
        netlist = Netlist("xor")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        out = netlist.add_lut("x", logic_xor(2), [a, b])
        netlist.add_output(out)
        executor = NetlistExecutor(netlist)
        output, cycles = executor.run(bytes([0b01]))
        assert output == bytes([1])
        assert cycles == 1
        output, _ = executor.run(bytes([0b11]))
        assert output == bytes([0])

    def test_adder_netlist_matches_arithmetic(self, tiny_geometry):
        executor = NetlistExecutor(build_adder_netlist(tiny_geometry, 8))
        for a, b in [(0, 0), (1, 2), (200, 100), (255, 255), (17, 240)]:
            output, _ = executor.run(bytes([a, b]))
            total = a + b
            assert output[0] == total & 0xFF
            assert output[1] == (total >> 8) & 1

    def test_parity_netlist_matches_popcount(self, tiny_geometry):
        executor = NetlistExecutor(build_parity_netlist(tiny_geometry, 32))
        for word in (0, 1, 0xFFFFFFFF, 0x12345678, 0x80000001):
            output, _ = executor.run(word.to_bytes(4, "little"))
            assert output[0] == bin(word).count("1") % 2

    def test_popcount_netlist(self, tiny_geometry):
        executor = NetlistExecutor(build_popcount_netlist(tiny_geometry, 8))
        for value in range(0, 256, 17):
            output, _ = executor.run(bytes([value]))
            assert output[0] == bin(value).count("1")

    def test_wrong_input_size_rejected(self, tiny_geometry):
        executor = NetlistExecutor(build_adder_netlist(tiny_geometry, 8))
        with pytest.raises(ExecutionError):
            executor.run(b"\x00")

    def test_each_bank_netlist_evaluator_has_its_own_profiler_key(self, default_bank, tiny_geometry):
        """cProfile and pstats key a function by ``(file, first line, name)``.
        Two evaluators under one key fold into one row, and which row pstats
        keeps depends on code-object addresses, so the per-layer call counts
        would depend on the interpreter's memory layout."""
        keys = []
        for function in default_bank:
            if function.cached_netlist(tiny_geometry) is not None:
                code = function.executor(tiny_geometry)._eval.__code__
                keys.append((code.co_filename, code.co_firstlineno, code.co_name))
        assert len(keys) >= 3
        assert len(set(keys)) == len(keys), keys


class TestBehaviouralExecutor:
    def test_runs_behaviour_and_charges_cycles(self):
        model = CycleModel(base_cycles=10, cycles_per_byte=2.0, pipeline_depth=5)
        executor = BehaviouralExecutor("upper", lambda data: data.upper(), model)
        output, cycles = executor.run(b"abc")
        assert output == b"ABC"
        assert cycles == 10 + 5 + 6

    def test_default_cycle_model(self):
        executor = BehaviouralExecutor("id", lambda data: data)
        _, cycles = executor.run(b"1234")
        assert cycles == CycleModel().cycles_for(4)


class TestCycleModel:
    def test_cycles_scale_with_input(self):
        model = CycleModel(base_cycles=8, cycles_per_byte=0.5)
        assert model.cycles_for(0) == 8
        assert model.cycles_for(16) == 16
