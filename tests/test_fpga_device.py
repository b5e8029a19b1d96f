"""Tests for the FPGA device: partial reconfiguration semantics."""

import pytest

from repro.fpga.bitgen import BitstreamGenerator
from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError, ExecutionError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.fpga.placer import Placer
from repro.functions.misc.logic import AdderFunction, ParityFunction, PopcountFunction


def _load(device, function, start_frame=0):
    """Generate and load *function* at a region starting at *start_frame*."""
    geometry = device.geometry
    netlist = function.build_netlist(geometry)
    placer = Placer(geometry)
    frames_needed = function.frames_required(geometry)
    region = FrameRegion.from_addresses(
        [geometry.all_frames()[index] for index in range(start_frame, start_frame + frames_needed)]
    )
    placement = placer.place(netlist, list(region), frames_needed=frames_needed)
    # Rebuild the placement on exactly the region's frames, in region order.
    bitstream = BitstreamGenerator(geometry).generate(
        netlist, placement, function.function_id, function.spec.input_bytes, function.spec.output_bytes
    )
    executor = function.executor(geometry)
    elapsed = device.configure_partial(
        bitstream, placement.region, executor, device.port.transfer_time_ns(bitstream.frames)
    )
    return bitstream, placement.region, elapsed


class TestPartialConfiguration:
    def test_load_and_execute(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        _, region, elapsed = _load(device, adder)
        assert device.is_loaded("adder8")
        assert elapsed > 0
        output, fabric_ns = device.execute("adder8", bytes([30, 12]))
        assert output[0] == 42 and fabric_ns > 0

    def test_partial_load_does_not_disturb_other_functions(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        parity = ParityFunction()
        _, adder_region, _ = _load(device, adder, start_frame=0)
        adder_readback = device.readback("adder8")
        _load(device, parity, start_frame=len(adder_region))
        # The adder's frames are untouched and it still executes correctly.
        assert device.readback("adder8") == adder_readback
        output, _ = device.execute("adder8", bytes([5, 6]))
        assert output[0] == 11
        output, _ = device.execute("parity32", bytes([1, 0, 0, 0]))
        assert output[0] == 1

    def test_collision_with_live_function_rejected(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        parity = ParityFunction()
        _load(device, adder, start_frame=0)
        with pytest.raises(FrameCollisionError):
            _load(device, parity, start_frame=0)

    def test_region_size_must_match_bitstream(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        bitstream, region, _ = _load(device, adder)
        device.unload("adder8")
        wrong_region = FrameRegion.from_addresses(list(region)[:-1] or [tiny_geometry.all_frames()[0]])
        if len(wrong_region) == len(region):
            wrong_region = FrameRegion.from_addresses(list(region) + [tiny_geometry.all_frames()[10]])
        with pytest.raises(ConfigurationError):
            device.configure_partial(bitstream, wrong_region, adder.executor(tiny_geometry), 0)

    def test_unload_frees_frames_and_disables_execution(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        _, region, _ = _load(device, adder)
        freed = device.unload("adder8")
        assert set(freed) == set(region)
        assert not device.is_loaded("adder8")
        with pytest.raises(ExecutionError):
            device.execute("adder8", bytes([1, 2]))
        assert device.memory.unowned_frames() == tiny_geometry.all_frames()

    def test_unload_unknown_function_rejected(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        with pytest.raises(ExecutionError):
            device.unload("ghost")

    def test_readback_matches_bitstream(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        adder = AdderFunction()
        bitstream, _, _ = _load(device, adder)
        assert device.verify_readback("adder8", bitstream)

    def test_reload_at_different_region_releases_old_frames(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        popcount = PopcountFunction()
        bitstream, region, _ = _load(device, popcount, start_frame=0)
        # Reload the same function at a different region.
        new_region = FrameRegion.from_addresses(
            [tiny_geometry.all_frames()[index + 8] for index in range(len(region))]
        )
        device.configure_partial(
            bitstream, new_region, popcount.executor(tiny_geometry), device.port.transfer_time_ns(bitstream.frames)
        )
        assert set(device.region_of("popcount8")) == set(new_region)
        owners = device.memory.owners()
        assert set(owners["popcount8"]) == set(new_region)

    def test_utilisation_and_describe(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        assert len(device.memory.unowned_frames()) == tiny_geometry.frame_count
        _load(device, AdderFunction())
        assert len(device.memory.unowned_frames()) < tiny_geometry.frame_count


class TestFullConfiguration:
    def test_execute_unloaded_function_rejected(self, tiny_geometry):
        device = FPGADevice(tiny_geometry)
        with pytest.raises(ExecutionError):
            device.execute("aes128", b"\x00" * 16)
