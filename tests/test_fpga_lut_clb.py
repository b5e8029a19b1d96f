"""Tests for LUTs, CLBs and switch boxes."""

import pytest

from oracles.luts import logic_and, logic_or, logic_xor
from repro.fpga.clb import ConfigurableLogicBlock, SwitchBox
from repro.fpga.lut import LookUpTable


class TestLookUpTable:
    def test_constant_luts(self):
        zero = LookUpTable.constant(4, False)
        one = LookUpTable.constant(4, True)
        assert not zero.evaluate([False] * 4)
        assert one.evaluate([True, False, True, False])
        assert zero.as_integer() == 0 and one.as_integer() == 0xFFFF

    def test_from_function_xor(self):
        lut = logic_xor(3)
        assert lut.evaluate([True, False, False])
        assert not lut.evaluate([True, True, False])

    def test_and_or_passthrough(self):
        and_lut = logic_and(2)
        or_lut = logic_or(2)
        pass_lut = LookUpTable.passthrough(3, which=1)
        assert and_lut.evaluate([True, True]) and not and_lut.evaluate([True, False])
        assert or_lut.evaluate([False, True]) and not or_lut.evaluate([False, False])
        assert pass_lut.evaluate([False, True, False])

    def test_truth_table_from_integer(self):
        lut = LookUpTable(2, 0b0110)  # XOR
        assert lut.evaluate([True, False]) and lut.evaluate([False, True])
        assert not lut.evaluate([True, True])
        assert lut.as_integer() == 0b0110

    def test_bytes_round_trip(self):
        lut = logic_xor(4)
        rebuilt = LookUpTable.from_bytes(4, lut.to_bytes())
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
            logic_and(2).evaluate([True])

    def test_passthrough_index_validation(self):
        with pytest.raises(ValueError):
            LookUpTable.passthrough(2, which=2)


class TestSwitchBox:
    def test_starts_clear(self):
        box = SwitchBox(8)
        assert box.is_clear and len(box.state) == 8

    def test_load_and_clear(self):
        box = SwitchBox(4)
        box.load_config_bytes(b"\x01\x02\x03\x04")
        assert not box.is_clear
        box.clear()
        assert box.is_clear

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SwitchBox(4).load_config_bytes(b"\x01")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SwitchBox(-1)


class TestConfigurableLogicBlock:
    def _clb(self):
        return ConfigurableLogicBlock(luts_per_clb=8, lut_inputs=4, switch_bytes=16)

    def test_config_length_matches_serialisation(self):
        clb = self._clb()
        assert len(clb.to_config_bytes()) == clb.config_byte_length()

    def test_round_trip_preserves_logic(self):
        clb = self._clb()
        clb.luts[0] = logic_xor(4)
        clb.luts[5] = logic_and(4)
        clb.ff_init[3] = True
        clb.switch_box.state[2] = 0x7F
        data = clb.to_config_bytes()

        other = self._clb()
        other.load_config_bytes(data)
        assert other.luts[0] == logic_xor(4)
        assert other.luts[5] == logic_and(4)
        assert other.ff_init[3] is True
        assert other.switch_box.state[2] == 0x7F
        assert other.to_config_bytes() == data

    def test_clear_resets_everything(self):
        clb = self._clb()
        clb.luts[1] = logic_or(4)
        clb.ff_init[0] = True
        clb.clear()
        assert clb.is_clear

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            self._clb().load_config_bytes(b"\x00" * 3)

    def test_needs_at_least_one_lut(self):
        with pytest.raises(ValueError):
            ConfigurableLogicBlock(0, 4, 16)
