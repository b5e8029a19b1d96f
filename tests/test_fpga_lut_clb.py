"""Tests for LUTs, CLBs and switch boxes, and the CLB-layout reader
(``tests/oracles/clb_layout.py``) that reads their bytes back."""

import pytest

from oracles.clb_layout import decode_lut, load_clb, load_switch_box
from oracles.luts import evaluate, logic_and, logic_or, logic_xor, passthrough
from repro.fpga.clb import ConfigurableLogicBlock, SwitchBox
from repro.fpga.geometry import CLB_CONFIG_BYTES, SWITCH_BYTES_PER_CLB
from repro.fpga.lut import LookUpTable


class TestLookUpTable:
    def test_constant_luts(self):
        zero = LookUpTable.constant(4, False)
        one = LookUpTable.constant(4, True)
        assert not evaluate(zero, [False] * 4)
        assert evaluate(one, [True, False, True, False])
        assert zero.as_integer() == 0 and one.as_integer() == 0xFFFF

    def test_from_function_xor(self):
        lut = logic_xor(3)
        assert evaluate(lut, [True, False, False])
        assert not evaluate(lut, [True, True, False])

    def test_and_or_passthrough(self):
        and_lut = logic_and(2)
        or_lut = logic_or(2)
        pass_lut = passthrough(3, which=1)
        assert evaluate(and_lut, [True, True]) and not evaluate(and_lut, [True, False])
        assert evaluate(or_lut, [False, True]) and not evaluate(or_lut, [False, False])
        assert evaluate(pass_lut, [False, True, False])

    def test_truth_table_from_integer(self):
        lut = LookUpTable(2, 0b0110)  # XOR
        assert evaluate(lut, [True, False]) and evaluate(lut, [False, True])
        assert not evaluate(lut, [True, True])
        assert lut.as_integer() == 0b0110

    def test_bytes_round_trip(self):
        lut = logic_xor(4)
        rebuilt = decode_lut(lut.to_bytes())
        assert rebuilt == lut
        assert hash(rebuilt) == hash(lut)

    def test_input_count_validation(self):
        with pytest.raises(ValueError):
            LookUpTable(0)
        with pytest.raises(ValueError):
            LookUpTable(9)
        with pytest.raises(ValueError):
            LookUpTable(2, [True] * 3)

    def test_evaluate_wrong_arity(self):
        with pytest.raises(ValueError):
            evaluate(logic_and(2), [True])

    def test_passthrough_index_validation(self):
        with pytest.raises(ValueError):
            passthrough(2, which=2)


class TestSwitchBox:
    def test_starts_clear(self):
        box = SwitchBox()
        assert not any(box.state) and len(box.state) == SWITCH_BYTES_PER_CLB

    def test_load_and_clear(self):
        box = SwitchBox()
        load_switch_box(box, bytes(range(1, SWITCH_BYTES_PER_CLB + 1)))
        assert box.to_config_bytes() == bytes(range(1, SWITCH_BYTES_PER_CLB + 1))
        load_switch_box(box, bytes(SWITCH_BYTES_PER_CLB))
        assert not any(box.state)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            load_switch_box(SwitchBox(), b"\x01")


class TestConfigurableLogicBlock:
    def _clb(self):
        return ConfigurableLogicBlock()

    def test_config_length_matches_serialisation(self):
        clb = self._clb()
        assert len(clb.to_config_bytes()) == CLB_CONFIG_BYTES

    def test_round_trip_preserves_logic(self):
        clb = self._clb()
        clb.luts[0] = logic_xor(4)
        clb.luts[5] = logic_and(4)
        clb.ff_init[3] = True
        clb.switch_box.state[2] = 0x7F
        data = clb.to_config_bytes()

        other = self._clb()
        load_clb(other, data)
        assert other.luts[0] == logic_xor(4)
        assert other.luts[5] == logic_and(4)
        assert other.ff_init[3] is True
        assert other.switch_box.state[2] == 0x7F
        assert other.to_config_bytes() == data

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            load_clb(self._clb(), b"\x00" * 3)
