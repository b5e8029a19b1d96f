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
``tests/test_e4_compression.py`` holds :func:`build_report` equal to the
committed report in tier-1.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table, format_value
from repro.bitstream.codecs import get_codec, SymmetryAwareCodec
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor
from repro.core.builder import build_coprocessor
from repro.fpga.geometry import CLB_CONFIG_BYTES

CODECS = ["null", "rle", "golomb", "huffman", "lz77", "framediff", "symmetry"]
WINDOW_BYTES = 1024


def raw_bitstreams(config, bank):
    """Raw (uncompressed) serialised bit-streams for every function."""
    copro = build_coprocessor(config=config.with_overrides(codec_name="null"), bank=bank)
    raw = {}
    for function in bank:
        record = copro.rom.record_table.by_name(function.name)
        image_bytes = copro.rom.read_bitstream(function.name)
        raw[function.name] = WindowedDecompressor(CompressedImage.from_bytes(image_bytes)).decompress_all()
        assert len(raw[function.name]) == record.uncompressed_size
    return raw


def _codec_for(name):
    if name == "symmetry":
        return SymmetryAwareCodec(clb_stride=CLB_CONFIG_BYTES)
    return get_codec(name)


def build_report(raw_bitstreams) -> ExperimentReport:
    """The whole E4 report from *raw_bitstreams* (function name -> raw
    bit-stream): both tables, the chart, the observations and the metrics."""
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
            codec = _codec_for(codec_name)
            image = WindowedCompressor(codec, WINDOW_BYTES).compress(raw)
            ratios.append(image.compression_ratio)
            stored_total += image.stored_length
            restored = WindowedDecompressor(image, _codec_for(codec_name)).decompress_all()
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
    rle_ratios, lz77_ratios = {}, {}
    for function_name, raw in raw_bitstreams.items():
        rle_image = WindowedCompressor(get_codec("rle"), WINDOW_BYTES).compress(raw)
        symmetry_image = WindowedCompressor(
            SymmetryAwareCodec(clb_stride=CLB_CONFIG_BYTES), WINDOW_BYTES
        ).compress(raw)
        lz77_image = WindowedCompressor(get_codec("lz77"), WINDOW_BYTES).compress(raw)
        rle_ratios[function_name] = rle_image.compression_ratio
        lz77_ratios[function_name] = lz77_image.compression_ratio
        per_function.add_row(
            function_name,
            len(raw) / 1024.0,
            rle_image.compression_ratio,
            symmetry_image.compression_ratio,
            lz77_image.compression_ratio,
        )
    report.add_table(per_function)

    # The headline is built from the per-function rows, so it cannot drift
    # from the table: "dense" bit-streams are those plain RLE does not shrink.
    dense = [name for name, ratio in rle_ratios.items() if ratio <= 1]
    sparse = [name for name in rle_ratios if name not in dense]
    assert dense and sparse and min(lz77_ratios.values()) > 1

    def span(names, ratios):
        values = [ratios[name] for name in names]
        return f"{format_value(min(values))}-{format_value(max(values))}x"

    report.observe(
        f"Plain run-length coding barely helps on densely used frames: its ratio is at or below 1 "
        f"on {len(dense)} of {len(rle_ratios)} bit-streams and above 1 only on "
        f"{', '.join(sparse)} ({span(sparse, rle_ratios)}). The LZ77 dictionary codec — whose "
        f"back-references land exactly on the repeated per-CLB structure — compresses every "
        f"bit-stream: {span(dense, lz77_ratios)} on those {len(dense)} and "
        f"{span(sparse, lz77_ratios)} on the other {len(sparse)} "
        f"(mean {format_value(ratios_chart['lz77'])}x). The CLB-symmetry opportunity the paper's "
        "conclusion identifies is real, and dictionary coding captures it on every dense bit-stream."
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
    report.record_metric("lz77_best_ratio", max(lz77_ratios.values()))
    report.record_metric("lz77_worst_ratio", min(lz77_ratios.values()))
    return report


def test_e4_compression(benchmark, default_config, bank):
    raw = raw_bitstreams(default_config, bank)
    save_report(build_report(raw))

    aes_raw = raw["aes128"]
    image = WindowedCompressor(get_codec("lz77"), WINDOW_BYTES).compress(aes_raw)

    def decompress_aes():
        return WindowedDecompressor(image, get_codec("lz77")).decompress_all()

    restored = benchmark(decompress_aes)
    assert restored == aes_raw
