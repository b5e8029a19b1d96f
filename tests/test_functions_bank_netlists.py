"""Tests for the function bank and the netlist-backed functions on the fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.executor import NetlistExecutor
from repro.functions.base import CallableFunction, FunctionCategory, FunctionSpec
from repro.functions.bank import FunctionBank, build_small_bank
from repro.functions.misc.logic import AdderFunction, ParityFunction, PopcountFunction


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec("", 1, "d", FunctionCategory.MISC, 1, 1, 1)
        with pytest.raises(ValueError):
            FunctionSpec("a-very-long-function-name", 1, "d", FunctionCategory.MISC, 1, 1, 1)
        with pytest.raises(ValueError):
            FunctionSpec("ok", 1, "d", FunctionCategory.MISC, 0, 1, 1)
        with pytest.raises(ValueError):
            FunctionSpec("ok", 1, "d", FunctionCategory.MISC, 1, 1, 0)

    def test_callable_function_adapter(self):
        spec = FunctionSpec("upper", 99, "uppercase", FunctionCategory.MISC, 8, 8, 32)
        function = CallableFunction(spec, lambda data: data.upper())
        assert function.behaviour(b"abc") == b"ABC"
        assert function.reference(b"abc") == b"ABC"
        assert function.build_netlist(None) is None

    def test_software_cycles_scale_with_slowdown(self):
        function = ParityFunction()
        assert function.software_cycles(4, slowdown=40.0) == 2 * function.software_cycles(4, slowdown=20.0)


class TestFunctionBank:
    def test_default_bank_contents(self, default_bank):
        assert len(default_bank) == 14
        names = default_bank.names()
        for expected in ("aes128", "des", "sha1", "sha256", "modexp512", "fir16", "fft256",
                         "matmul8", "crc32", "bitonic64", "strmatch", "parity32", "adder8", "popcount8"):
            assert expected in names

    def test_small_bank_is_subset_of_cheap_functions(self):
        bank = build_small_bank()
        assert len(bank) == 4
        assert all(function.spec.lut_estimate < 300 for function in bank)

    def test_lookup_by_name_and_id(self, default_bank):
        assert default_bank.by_name("aes128").function_id == 1
        assert default_bank.by_id(1).name == "aes128"
        with pytest.raises(KeyError):
            default_bank.by_name("ghost")
        with pytest.raises(KeyError):
            default_bank.by_id(999)

    def test_duplicate_names_and_ids_rejected(self):
        bank = FunctionBank([ParityFunction(function_id=1)])
        with pytest.raises(ValueError):
            bank.add(ParityFunction(function_id=2))
        with pytest.raises(ValueError):
            bank.add(AdderFunction(function_id=1))

    def test_by_category(self, default_bank):
        crypto = [f for f in default_bank if f.spec.category is FunctionCategory.CRYPTO]
        assert {function.name for function in crypto} == {"aes128", "des", "modexp512"}

    def test_subset_preserves_order(self, default_bank):
        subset = default_bank.subset(["sha1", "aes128"])
        assert subset.names() == ["sha1", "aes128"]

    def test_unique_ids_across_default_bank(self, default_bank):
        ids = [function.function_id for function in default_bank]
        assert len(ids) == len(set(ids))

    def test_describe_lists_every_function(self, default_bank):
        text = default_bank.describe()
        assert text.count("\n") == len(default_bank) - 1

    def test_frames_required_positive_for_all(self, default_bank, small_geometry):
        for function in default_bank:
            assert function.frames_required(small_geometry) >= 1


class TestNetlistBackedFunctions:
    """The three netlist functions must behave identically when evaluated
    gate-by-gate on the fabric and when run as reference software."""

    @pytest.mark.parametrize("function_class", [ParityFunction, AdderFunction, PopcountFunction])
    def test_netlist_executor_matches_behaviour_exhaustive_small(self, function_class, tiny_geometry):
        function = function_class()
        netlist = function.build_netlist(tiny_geometry)
        executor = NetlistExecutor(netlist)
        samples = {
            "parity32": [bytes(4), b"\xff\xff\xff\xff", b"\x01\x00\x00\x80", b"\x12\x34\x56\x78"],
            "adder8": [bytes(2), b"\xff\xff", b"\x01\x02", b"\x80\x80", b"\xc8\x64"],
            "popcount8": [bytes([value]) for value in range(0, 256, 23)],
        }[function.name]
        for data in samples:
            assert executor.run(data)[0] == function.behaviour(data)

    @given(data=st.binary(min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_parity_netlist_property(self, data):
        from repro.fpga.geometry import FabricGeometry

        geometry = FabricGeometry(columns=4, rows=16, clb_rows_per_frame=4)
        function = ParityFunction()
        executor = NetlistExecutor(function.build_netlist(geometry))
        assert executor.run(data)[0] == function.behaviour(data)

    @given(data=st.binary(min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_adder_netlist_property(self, data):
        from repro.fpga.geometry import FabricGeometry

        geometry = FabricGeometry(columns=4, rows=16, clb_rows_per_frame=4)
        function = AdderFunction()
        executor = NetlistExecutor(function.build_netlist(geometry))
        assert executor.run(data)[0] == function.behaviour(data)

    def test_executor_selection(self, tiny_geometry):
        # Netlist-backed functions get a NetlistExecutor, others a behavioural one.
        from repro.fpga.executor import BehaviouralExecutor
        from repro.functions.misc.crc import Crc32Function

        assert isinstance(ParityFunction().executor(tiny_geometry), NetlistExecutor)
        assert isinstance(Crc32Function().executor(tiny_geometry), BehaviouralExecutor)
