"""Property-based tests on cross-cutting invariants.

These complement the per-module property tests: they check the invariants
that hold *across* components — frame accounting between the mini OS and the
device, bit-stream download/reload consistency, and end-to-end output
equivalence between the co-processor and the reference behaviours.
"""

from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.bitstream.codecs import available_codecs, get_codec
from repro.bitstream.window import WindowedDecompressor
from repro.core.builder import build_coprocessor
from repro.core.config import SMALL_CONFIG
from repro.functions.bank import build_small_bank
from repro.mcu.minios import MiniOs
from repro.fpga.geometry import FabricGeometry
from test_bitstream_window import compress

_GEOMETRY = FabricGeometry(columns=4, rows=16, clb_rows_per_frame=4)
_BANK_NAMES = ["crc32", "parity32", "adder8", "popcount8"]


class TestMiniOsAccountingInvariant:
    """free frames + resident frames == device frames, whatever the request mix."""

    @given(
        requests=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.integers(min_value=1, max_value=6)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_frame_accounting(self, requests):
        minios = MiniOs(_GEOMETRY)
        clock_ns = 0.0
        for name, frames_needed in requests:
            clock_ns += 10.0
            try:
                decision = minios.plan_load(name, frames_needed)
            except Exception:
                continue
            if decision.hit:
                minios.touch(name, clock_ns)
                continue
            for victim in decision.evictions:
                minios.commit_eviction(victim)
            minios.commit_load(name, decision.region, clock_ns)
            minios.touch(name, clock_ns)
            resident = sum(entry.frame_count for entry in minios.table)
            assert resident + minios.free_count == _GEOMETRY.frame_count
            # No frame is both free and resident.
            resident_addresses = {
                address for entry in minios.table for address in entry.region
            }
            assert not (resident_addresses & set(minios.free_frames()))


class TestWindowedCompressionInvariant:
    @given(
        data=st.binary(max_size=3000),
        codec_name=st.sampled_from(available_codecs()),
        window=st.integers(min_value=32, max_value=1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_codec_any_window_round_trips(self, data, codec_name, window):
        codec = get_codec(codec_name)
        image = compress(codec, data, window)
        restored = WindowedDecompressor(image, get_codec(codec_name)).decompress_all()
        assert restored == data
        assert image.original_length == len(data)


class TestEndToEndEquivalence:
    """The co-processor's output always equals the reference software output,
    regardless of request order (i.e. of which reconfigurations happen)."""

    @given(
        sequence=st.lists(st.sampled_from(_BANK_NAMES), min_size=1, max_size=12),
        payload_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_outputs_match_reference(self, sequence, payload_seed):
        bank = build_small_bank()
        copro = build_coprocessor(config=SMALL_CONFIG.with_overrides(seed=1), bank=bank)
        from repro.sim.rand import SeededRandom

        rng = SeededRandom(payload_seed)
        for name in sequence:
            data = rng.bytes(bank.by_name(name).spec.input_bytes)
            result = copro.execute(name, data)
            assert result.output == bank.by_name(name).behaviour(data)
        # The clock only ever moves forward and statistics stay consistent.
        assert copro.stats.requests == len(sequence)
        assert copro.stats.hits + copro.stats.misses == len(sequence)
