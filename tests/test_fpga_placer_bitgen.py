"""Tests for the placer and the bit-stream generator."""

import pytest

from repro.bitstream.format import parse_bitstream
from repro.fpga.bitgen import BitstreamGenerator
from repro.fpga.errors import PlacementError
from repro.fpga.frame import Frame
from repro.fpga.placer import Placer, PlacementStrategy
from repro.functions.netgen import build_adder_netlist, build_parity_netlist


class TestPlacer:
    def test_frames_required_scales_with_luts(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        parity = build_parity_netlist(tiny_geometry, 32)
        assert placer.frames_required(parity) >= 1

    def test_contiguous_first_fit_prefers_runs(self, tiny_geometry):
        placer = Placer(tiny_geometry, PlacementStrategy.CONTIGUOUS_FIRST_FIT)
        free = [tiny_geometry.frame_at(index) for index in (0, 2, 3, 4, 9)]
        chosen = placer.choose_frames(3, free)
        assert [address.flat_index(tiny_geometry.tiles_per_column) for address in chosen] == [2, 3, 4]

    def test_contiguous_first_fit_falls_back_to_scatter(self, tiny_geometry):
        placer = Placer(tiny_geometry, PlacementStrategy.CONTIGUOUS_FIRST_FIT)
        free = [tiny_geometry.frame_at(index) for index in (0, 2, 4, 6)]
        chosen = placer.choose_frames(3, free)
        assert len(chosen) == 3

    def test_contiguous_only_fails_when_fragmented(self, tiny_geometry):
        placer = Placer(tiny_geometry, PlacementStrategy.CONTIGUOUS_ONLY)
        free = [tiny_geometry.frame_at(index) for index in (0, 2, 4, 6)]
        with pytest.raises(PlacementError):
            placer.choose_frames(2, free)

    def test_scatter_takes_lowest_indices(self, tiny_geometry):
        placer = Placer(tiny_geometry, PlacementStrategy.SCATTER)
        free = [tiny_geometry.frame_at(index) for index in (9, 1, 5)]
        chosen = placer.choose_frames(2, free)
        assert [address.flat_index(tiny_geometry.tiles_per_column) for address in chosen] == [1, 5]

    def test_insufficient_frames_raises(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        with pytest.raises(PlacementError):
            placer.choose_frames(4, [tiny_geometry.frame_at(0)])
        with pytest.raises(PlacementError):
            placer.choose_frames(0, [tiny_geometry.frame_at(0)])

    def test_place_assigns_every_lut_a_unique_site(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        netlist = build_adder_netlist(tiny_geometry, 8)
        placement = placer.place(netlist, tiny_geometry.all_frames())
        assert len(placement.sites) == netlist.lut_count
        sites = {(site.frame, site.clb_index, site.lut_index) for site in placement.sites.values()}
        assert len(sites) == netlist.lut_count
        for site in placement.sites.values():
            assert site.frame in placement.region
            assert 0 <= site.clb_index < tiny_geometry.clbs_per_frame
            assert 0 <= site.lut_index < tiny_geometry.luts_per_clb

    def test_place_rejects_overfull_region(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        # A 128-input parity tree needs more LUTs than one frame offers.
        netlist = build_parity_netlist(tiny_geometry, 128)
        assert netlist.lut_count > tiny_geometry.luts_per_frame
        with pytest.raises(PlacementError):
            placer.place(netlist, tiny_geometry.all_frames(), frames_needed=1)

    def test_lut_utilisation(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        netlist = build_adder_netlist(tiny_geometry, 8)
        placement = placer.place(netlist, tiny_geometry.all_frames())
        capacity = placement.frame_count * tiny_geometry.luts_per_frame
        assert 0 < len(placement.sites) <= capacity

    def test_fragmentation_index(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        assert placer.fragmentation([]) == 0.0
        contiguous = [tiny_geometry.frame_at(index) for index in range(4)]
        assert placer.fragmentation(contiguous) == 0.0
        scattered = [tiny_geometry.frame_at(index) for index in (0, 2, 4, 6)]
        assert placer.fragmentation(scattered) == pytest.approx(0.75)


class TestBitstreamGenerator:
    def test_generated_bitstream_parses_and_matches_geometry(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        generator = BitstreamGenerator(tiny_geometry)
        netlist = build_adder_netlist(tiny_geometry, 8)
        placement = placer.place(netlist, tiny_geometry.all_frames())
        bitstream = generator.generate(netlist, placement, function_id=13, input_bytes=2, output_bytes=2)
        assert bitstream.header.function_name == "adder8"
        assert bitstream.header.frame_count == len(placement.region)
        assert all(len(frame) == tiny_geometry.frame_config_bytes for frame in bitstream.frames)
        parsed = parse_bitstream(bitstream.to_bytes())
        assert parsed.frames == bitstream.frames

    def test_rendered_frames_contain_the_netlist_luts(self, tiny_geometry):
        placer = Placer(tiny_geometry)
        generator = BitstreamGenerator(tiny_geometry)
        netlist = build_adder_netlist(tiny_geometry, 8)
        placement = placer.place(netlist, tiny_geometry.all_frames())
        payloads = generator.render_frames(netlist, placement)
        configured_luts = 0
        for slot, address in enumerate(placement.region):
            frame = Frame(tiny_geometry, address)
            frame.load_config_bytes(payloads[slot])
            configured_luts += sum(
                1 for clb in frame.decode_clbs() for lut in clb.luts if lut.as_integer() != 0
            )
        # Every non-trivial LUT cell of the netlist appears in the frames.
        nontrivial = sum(1 for cell in netlist.lut_cells if cell.lut.as_integer() != 0)
        assert configured_luts == nontrivial

    def test_generation_is_deterministic(self, tiny_geometry):
        generator = BitstreamGenerator(tiny_geometry)
        placer = Placer(tiny_geometry)
        netlist = build_parity_netlist(tiny_geometry, 32)
        placement = placer.place(netlist, tiny_geometry.all_frames())
        first = generator.generate(netlist, placement, 12, 4, 1).to_bytes()
        second = generator.generate(netlist, placement, 12, 4, 1).to_bytes()
        assert first == second

    def test_synthetic_frames_shape_and_determinism(self, tiny_geometry):
        generator = BitstreamGenerator(tiny_geometry)
        frames_a = generator.synthetic_frames(frame_count=3, lut_count=50, seed=5)
        frames_b = generator.synthetic_frames(frame_count=3, lut_count=50, seed=5)
        frames_c = generator.synthetic_frames(frame_count=3, lut_count=50, seed=6)
        assert frames_a == frames_b
        assert frames_a != frames_c
        assert len(frames_a) == 3
        assert all(len(frame) == tiny_geometry.frame_config_bytes for frame in frames_a)

    def test_synthetic_frames_respect_lut_budget(self, tiny_geometry):
        generator = BitstreamGenerator(tiny_geometry)
        frames = generator.synthetic_frames(frame_count=2, lut_count=10, seed=1)
        configured = 0
        for payload in frames:
            frame = Frame(tiny_geometry, tiny_geometry.frame_at(0))
            frame.load_config_bytes(payload)
            configured += sum(
                1 for clb in frame.decode_clbs() for lut in clb.luts if lut.as_integer() != 0
            )
        assert configured == 10

    def test_synthetic_frames_validation(self, tiny_geometry):
        generator = BitstreamGenerator(tiny_geometry)
        with pytest.raises(ValueError):
            generator.synthetic_frames(frame_count=0, lut_count=1)
