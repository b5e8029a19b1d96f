"""E7 — ROM capacity and the two-ended layout.

The ROM stores compressed bit-streams from one end and the record table from
the other.  This experiment downloads progressively larger banks with each
codec E4 measures (its list, imported, so "the best codec" here is E4's
best) and reports the ROM occupancy split (bit-stream area, record area, free
gap), verifies the two areas never collide, and determines how large a ROM
each codec requires for the full bank.

The report is byte-identical across processes, and
``tests/test_e7_rom_layout.py`` holds :func:`build_report` equal to the
committed report in tier-1.

The timed kernel is a full default-bank download (generate + compress +
download all 14 bit-streams).
"""

from __future__ import annotations

import pytest

from benchmarks.bench_e4_compression import CODECS
from benchmarks.conftest import save_report
from repro.analysis.figures import ascii_bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.builder import build_coprocessor
from repro.memory.errors import RomFullError

BANK_SIZES = [2, 5, 8, 11, 14]


def build_report(default_config, bank) -> ExperimentReport:
    """The whole E7 report: the occupancy table, the chart, the tight-ROM
    check, the observations and the metrics."""
    report = ExperimentReport("E7", "ROM occupancy: two-ended layout vs bank size and codec")
    names = bank.names()
    table = Table(
        "ROM occupancy (KiB) after downloading the first N functions",
        ["codec", "bank_size", "bitstream_KiB", "record_KiB", "free_KiB", "utilisation"],
    )
    full_bank_usage = {}
    for codec_name in CODECS:
        for size in BANK_SIZES:
            config = default_config.with_overrides(codec_name=codec_name)
            copro = build_coprocessor(config=config, bank=bank, functions=names[:size])
            layout = copro.rom_layout()
            # Invariant of the two-ended layout: the areas never overlap.
            assert layout["free_bytes"] >= 0
            assert (
                layout["bitstream_bytes"] + layout["record_bytes"] + layout["free_bytes"]
                == layout["capacity_bytes"]
            )
            table.add_row(
                codec_name,
                size,
                layout["bitstream_bytes"] / 1024.0,
                layout["record_bytes"] / 1024.0,
                layout["free_bytes"] / 1024.0,
                copro.rom.utilisation,
            )
            if size == len(bank):
                full_bank_usage[codec_name] = (
                    layout["bitstream_bytes"] + layout["record_bytes"]
                ) / 1024.0
    report.add_table(table)
    report.add_figure(
        ascii_bar_chart("ROM bytes needed for the full 14-function bank (KiB)", full_bank_usage, unit="KiB")
    )

    # A ROM sized between the best-codec requirement and the uncompressed
    # requirement must refuse the uncompressed download (the two areas would
    # collide) while accepting the compressed one.
    best_codec = min(
        (name for name in full_bank_usage if name != "null"), key=lambda name: full_bank_usage[name]
    )
    tight_capacity = int((full_bank_usage["null"] + full_bank_usage[best_codec]) / 2 * 1024)
    tight_null = default_config.with_overrides(codec_name="null", rom_capacity_bytes=tight_capacity)
    with pytest.raises(RomFullError):
        build_coprocessor(config=tight_null, bank=bank)
    tight_best = default_config.with_overrides(codec_name=best_codec, rom_capacity_bytes=tight_capacity)
    build_coprocessor(config=tight_best, bank=bank)  # fits once compressed

    report.observe(
        "Bit-stream and record areas grow toward each other and never collide; the download is "
        "refused with a clear error when they would."
    )
    report.observe(
        f"Compression shrinks the ROM needed for the full bank from "
        f"{full_bank_usage['null']:.0f} KiB (uncompressed) to "
        f"{min(v for k, v in full_bank_usage.items() if k != 'null'):.0f} KiB with the best codec."
    )
    for codec_name, used in full_bank_usage.items():
        report.record_metric(f"rom_KiB_{codec_name}", used)
    return report


def test_e7_rom_layout(benchmark, default_config, bank):
    save_report(build_report(default_config, bank))

    def download_full_bank():
        copro = build_coprocessor(config=default_config, bank=bank, download=False)
        copro.download_bank()
        return copro.rom_layout()

    layout = benchmark.pedantic(download_full_bank, rounds=3, iterations=1)
    assert layout["functions"] == len(bank)
