"""Tests for the netlist representation and the netlist builders."""

import pytest

from oracles.luts import logic_and, logic_xor
from repro.fpga.netlist import CellKind, Netlist
from repro.functions.netgen import (
    add_padded_lut,
    build_adder_netlist,
    build_parity_netlist,
    build_popcount_netlist,
    padded_lut,
)


class TestNetlistConstruction:
    def test_add_input_and_lut(self):
        netlist = Netlist("demo")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        out = netlist.add_lut("xor0", logic_xor(2), [a, b])
        netlist.add_output(out)
        netlist.validate()
        assert netlist.lut_count == 1
        assert netlist.inputs == ["a", "b"]
        assert netlist.outputs == [out]

    def test_duplicate_net_and_cell_names_rejected(self):
        netlist = Netlist("demo")
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_input("a")
        netlist.add_lut("l0", logic_and(1), ["a"])
        with pytest.raises(ValueError):
            netlist.add_lut("l0", logic_and(1), ["a"])

    def test_fanin_arity_must_match_lut(self):
        netlist = Netlist("demo")
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_lut("bad", logic_and(2), ["a"])

    def test_output_requires_existing_net(self):
        netlist = Netlist("demo")
        with pytest.raises(ValueError):
            netlist.add_output("ghost")

    def test_driver_conflict_rejected(self):
        netlist = Netlist("demo")
        a = netlist.add_input("a")
        netlist.add_lut("l0", logic_and(1), [a], output_net="n")
        with pytest.raises(ValueError):
            netlist.add_lut("l1", logic_and(1), [a], output_net="n")

    def test_validate_detects_undriven_net(self):
        netlist = Netlist("demo")
        netlist.add_input("a")
        netlist.add_lut("l0", logic_and(2), ["a", "phantom"])
        with pytest.raises(ValueError):
            netlist.validate()

    def test_topological_order_and_depth(self):
        netlist = Netlist("chain")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        stage1 = netlist.add_lut("s1", logic_xor(2), [a, b])
        stage2 = netlist.add_lut("s2", logic_and(2), [stage1, a])
        netlist.add_output(stage2)
        order = [cell.name for cell in netlist.topological_lut_order()]
        assert order == ["s1", "s2"]

    def test_combinational_cycle_detected(self):
        netlist = Netlist("cycle")
        a = netlist.add_input("a")
        netlist.add_lut("l0", logic_and(2), [a, "loop"], output_net="n0")
        netlist.add_lut("l1", logic_and(2), ["n0", a], output_net="loop")
        with pytest.raises(ValueError):
            netlist.topological_lut_order()

    def test_lut_cell_requires_truth_table(self):
        from repro.fpga.netlist import Cell

        with pytest.raises(ValueError):
            Cell("bad", CellKind.LUT, ("a",), "n")


class TestNetgenHelpers:
    def test_padded_lut_ignores_padding_inputs(self, tiny_geometry):
        lut = padded_lut(tiny_geometry, 2, lambda bits: bits[0] ^ bits[1])
        assert lut.inputs == tiny_geometry.lut_inputs
        assert lut.evaluate([True, False, True, True])
        assert not lut.evaluate([True, True, False, False])

    def test_padded_lut_width_limit(self, tiny_geometry):
        with pytest.raises(ValueError):
            padded_lut(tiny_geometry, tiny_geometry.lut_inputs + 1, all)

    def test_add_padded_lut_requires_fanin(self, tiny_geometry):
        netlist = Netlist("x")
        with pytest.raises(ValueError):
            add_padded_lut(netlist, tiny_geometry, "l0", all, [])

    def test_parity_netlist_structure(self, tiny_geometry):
        netlist = build_parity_netlist(tiny_geometry, 32)
        netlist.validate()
        assert len(netlist.inputs) == 32
        assert len(netlist.outputs) == 1
        assert netlist.lut_count >= 8

    def test_adder_netlist_structure(self, tiny_geometry):
        netlist = build_adder_netlist(tiny_geometry, 8)
        netlist.validate()
        assert len(netlist.inputs) == 16
        assert len(netlist.outputs) == 9

    def test_popcount_netlist_structure(self, tiny_geometry):
        netlist = build_popcount_netlist(tiny_geometry, 8)
        netlist.validate()
        assert len(netlist.inputs) == 8
        assert len(netlist.outputs) == 4

    def test_popcount_only_supports_eight_bits(self, tiny_geometry):
        with pytest.raises(ValueError):
            build_popcount_netlist(tiny_geometry, 16)

    def test_parity_rejects_nonpositive_width(self, tiny_geometry):
        with pytest.raises(ValueError):
            build_parity_netlist(tiny_geometry, 0)
