"""E4 — Bit-stream compression ratio.

The ROM stores *compressed* bit-streams and the configuration module
decompresses them window by window; the paper's conclusion calls for codecs
that exploit CLB symmetry.  This experiment compresses every function's
bit-stream with every codec in the library, checks the windowed round trip,
and reports the compression ratio and the ROM bytes saved; the
symmetry-aware codec is the answer to the paper's open problem.

The report holds simulated and exact values only, so two runs write the same
bytes.  Host decompression speed is not part of it: the pytest-benchmark
kernel below times windowed LZ77 decompression of the AES bit-stream, and the
e2e ledger (``bitstream.lz77_decompress_MBps``) tracks it over time.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.bitstream.codecs import get_codec, SymmetryAwareCodec
from repro.bitstream.window import WindowedCompressor, WindowedDecompressor
from repro.core.builder import build_coprocessor

CODECS = ["null", "rle", "golomb", "huffman", "lz77", "framediff", "symmetry"]
WINDOW_BYTES = 1024


@pytest.fixture(scope="module")
def raw_bitstreams(default_config, bank):
    """Raw (uncompressed) serialised bit-streams for every function."""
    copro = build_coprocessor(config=default_config.with_overrides(codec_name="null"), bank=bank)
    raw = {}
    for function in bank:
        record = copro.rom.record_table.by_name(function.name)
        image_bytes = b"".join(copro.rom.read_bitstream(function.name))
        from repro.bitstream.window import CompressedImage

        raw[function.name] = WindowedDecompressor(CompressedImage.from_bytes(image_bytes)).decompress_all()
        assert len(raw[function.name]) == record.uncompressed_size
    return raw


def _codec_for(name, geometry):
    if name == "symmetry":
        return SymmetryAwareCodec(clb_stride=geometry.clb_config_bytes)
    return get_codec(name)


def test_e4_compression(benchmark, default_config, bank, raw_bitstreams):
    geometry = default_config.geometry()
    report = ExperimentReport("E4", "Bit-stream compression ratio")
    table = Table(
        "Mean compression ratio per codec",
        ["codec", "mean_ratio", "best_ratio", "worst_ratio", "total_rom_KiB"],
    )
    ratios_chart = {}
    total_raw = sum(len(data) for data in raw_bitstreams.values())
    for codec_name in CODECS:
        ratios = []
        stored_total = 0
        for function_name, raw in raw_bitstreams.items():
            codec = _codec_for(codec_name, geometry)
            image = WindowedCompressor(codec, WINDOW_BYTES).compress(raw)
            ratios.append(image.compression_ratio)
            stored_total += image.stored_length
            restored = WindowedDecompressor(image, _codec_for(codec_name, geometry)).decompress_all()
            assert restored == raw
        mean_ratio = sum(ratios) / len(ratios)
        ratios_chart[codec_name] = mean_ratio
        table.add_row(
            codec_name,
            mean_ratio,
            max(ratios),
            min(ratios),
            stored_total / 1024.0,
        )
    report.add_table(table)
    report.add_figure(ascii_bar_chart("Mean compression ratio (higher is better)", ratios_chart, unit="x"))

    per_function = Table(
        "Compression ratio per function (plain RLE vs structure-aware codecs)",
        ["function", "raw_KiB", "rle_ratio", "symmetry_ratio", "lz77_ratio"],
    )
    for function_name, raw in raw_bitstreams.items():
        rle_image = WindowedCompressor(get_codec("rle"), WINDOW_BYTES).compress(raw)
        symmetry_image = WindowedCompressor(
            SymmetryAwareCodec(clb_stride=geometry.clb_config_bytes), WINDOW_BYTES
        ).compress(raw)
        lz77_image = WindowedCompressor(get_codec("lz77"), WINDOW_BYTES).compress(raw)
        per_function.add_row(
            function_name,
            len(raw) / 1024.0,
            rle_image.compression_ratio,
            symmetry_image.compression_ratio,
            lz77_image.compression_ratio,
        )
    report.add_table(per_function)

    report.observe(
        "Plain run-length coding barely helps on densely used frames (ratios at or below 1), while "
        "the LZ77 dictionary codec — whose back-references land exactly on the repeated per-CLB "
        "structure — compresses every bit-stream by 4-6x: the CLB-symmetry opportunity the paper's "
        "conclusion identifies is real, and dictionary coding captures it."
    )
    report.observe(
        "The explicit transpose+delta 'symmetry' codec is a negative result in this form: the "
        "per-frame packet headers break the CLB stride alignment and its inner run-length stage "
        "cannot exploit the exposed redundancy, so it loses to simply letting LZ77 find the "
        "stride-distance matches."
    )
    report.record_metric("total_raw_KiB", total_raw / 1024.0)
    report.record_metric("rle_mean_ratio", ratios_chart["rle"])
    report.record_metric("symmetry_mean_ratio", ratios_chart["symmetry"])
    report.record_metric("lz77_mean_ratio", ratios_chart["lz77"])
    save_report(report)

    aes_raw = raw_bitstreams["aes128"]
    image = WindowedCompressor(get_codec("lz77"), WINDOW_BYTES).compress(aes_raw)

    def decompress_aes():
        return WindowedDecompressor(image, get_codec("lz77")).decompress_all()

    restored = benchmark(decompress_aes)
    assert restored == aes_raw
