"""E4 — Bit-stream compression ratio.

The ROM stores *compressed* bit-streams and the configuration module
decompresses them window by window; the paper's conclusion calls for codecs
that exploit CLB symmetry.  This experiment compresses every function's
bit-stream with every codec in the library, checks the windowed round trip,
and reports the compression ratio and the ROM bytes saved.  The answer to the
paper's open problem is ``lz77ctx``: LZ77 whose matches may reach into the
previous raw window, which the configuration module already holds.

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
from repro.bitstream.codecs import get_codec
from repro.bitstream.window import (
    COMPRESSION_WINDOW_BYTES,
    CompressedImage,
    WindowedCompressor,
    WindowedDecompressor,
)
from repro.core.builder import build_coprocessor

CODECS = ["null", "rle", "golomb", "huffman", "lz77", "framediff", "lz77ctx"]


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


def build_report(raw_bitstreams) -> ExperimentReport:
    """The whole E4 report from *raw_bitstreams* (function name -> raw
    bit-stream): both tables, the chart, the observations and the metrics."""
    report = ExperimentReport("E4", "Bit-stream compression ratio")
    table = Table(
        "Mean compression ratio per codec",
        ["codec", "mean_ratio", "best_ratio", "worst_ratio", "total_rom_KiB"],
    )
    ratios_chart = {}
    rom_KiB = {}
    total_raw = sum(len(data) for data in raw_bitstreams.values())
    for codec_name in CODECS:
        ratios = []
        stored_total = 0
        for function_name, raw in raw_bitstreams.items():
            codec = get_codec(codec_name)
            image = WindowedCompressor(codec).compress(raw)
            ratios.append(image.compression_ratio)
            stored_total += image.stored_length
            restored = WindowedDecompressor(image, get_codec(codec_name)).decompress_all()
            assert restored == raw
        mean_ratio = sum(ratios) / len(ratios)
        ratios_chart[codec_name] = mean_ratio
        rom_KiB[codec_name] = stored_total / 1024.0
        table.add_row(
            codec_name,
            mean_ratio,
            max(ratios),
            min(ratios),
            rom_KiB[codec_name],
        )
    report.add_table(table)
    report.add_figure(ascii_bar_chart("Mean compression ratio (higher is better)", ratios_chart, unit="x"))

    per_function = Table(
        "Compression ratio per function (plain RLE vs structure-aware codecs)",
        ["function", "raw_KiB", "rle_ratio", "lz77ctx_ratio", "lz77_ratio"],
    )
    rle_ratios, ctx_ratios, lz77_ratios = {}, {}, {}
    for function_name, raw in raw_bitstreams.items():
        for ratios, codec_name in ((rle_ratios, "rle"), (ctx_ratios, "lz77ctx"), (lz77_ratios, "lz77")):
            image = WindowedCompressor(get_codec(codec_name)).compress(raw)
            ratios[function_name] = image.compression_ratio
        per_function.add_row(
            function_name,
            len(raw) / 1024.0,
            rle_ratios[function_name],
            ctx_ratios[function_name],
            lz77_ratios[function_name],
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

    # Only a bit-stream longer than one window has a previous window to reach
    # into; a one-window bit-stream is plain LZ77, byte for byte.
    multi = [name for name, raw in raw_bitstreams.items() if len(raw) > COMPRESSION_WINDOW_BYTES]
    single = [name for name in raw_bitstreams if name not in multi]
    assert multi and single
    assert all(ctx_ratios[name] > lz77_ratios[name] for name in multi)
    assert all(ctx_ratios[name] == lz77_ratios[name] for name in single)
    report.observe(
        f"LZ77 whose matches may reach into the previous raw window ('lz77ctx') exploits the "
        f"symmetry across windows too: a function's frames repeat a few CLB images, so most of a "
        f"window is already in the one before it. It stores the {len(raw_bitstreams)}-function bank "
        f"in {format_value(rom_KiB['lz77ctx'])} KiB against {format_value(rom_KiB['lz77'])} KiB "
        f"with lz77 ({format_value(rom_KiB['lz77'] / rom_KiB['lz77ctx'])}x less; mean ratio "
        f"{format_value(ratios_chart['lz77ctx'])}x). It gains on the {len(multi)} bit-streams "
        f"longer than one {COMPRESSION_WINDOW_BYTES}-byte window ({span(multi, ctx_ratios)}) and keeps "
        f"lz77's ratio exactly on {', '.join(single)}, which fit in one."
    )
    report.record_metric("total_raw_KiB", total_raw / 1024.0)
    report.record_metric("rle_mean_ratio", ratios_chart["rle"])
    report.record_metric("lz77ctx_mean_ratio", ratios_chart["lz77ctx"])
    report.record_metric("lz77_mean_ratio", ratios_chart["lz77"])
    report.record_metric("lz77_best_ratio", max(lz77_ratios.values()))
    report.record_metric("lz77_worst_ratio", min(lz77_ratios.values()))
    return report


def test_e4_compression(benchmark, default_config, bank):
    raw = raw_bitstreams(default_config, bank)
    save_report(build_report(raw))

    aes_raw = raw["aes128"]
    image = WindowedCompressor(get_codec("lz77")).compress(aes_raw)

    def decompress_aes():
        return WindowedDecompressor(image, get_codec("lz77")).decompress_all()

    restored = benchmark(decompress_aes)
    assert restored == aes_raw
