"""Configuration of a co-processor instance.

Every experiment knob lives here so benchmark sweeps are just "build a config,
vary one field".  The defaults describe a plausible 2005-era card: a mid-range
partially reconfigurable FPGA, a 4 MiB configuration flash and 1 MiB of SRAM.
The 66 MHz microcontroller and its command decode cost, the 33 MHz/32-bit PCI
bus and its 256-byte DMA bursts are constants of :mod:`repro.mcu.microcontroller`,
:mod:`repro.pci` and :mod:`repro.core.host`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fpga.geometry import FabricGeometry
from repro.fpga.placer import PlacementStrategy


@dataclass(frozen=True)
class CoprocessorConfig:
    """All tunable parameters of one co-processor instance."""

    # --- FPGA fabric -------------------------------------------------------
    fabric_columns: int = 16
    fabric_rows: int = 64
    clb_rows_per_frame: int = 8
    luts_per_clb: int = 8
    lut_inputs: int = 4
    switch_bytes_per_clb: int = 16

    # --- memories ----------------------------------------------------------
    rom_capacity_bytes: int = 4 * 1024 * 1024
    ram_capacity_bytes: int = 1 * 1024 * 1024

    # --- bit-stream handling ------------------------------------------------
    codec_name: str = "lz77"
    compression_window_bytes: int = 1024
    overlap_decompress: bool = False

    # --- microcontroller / mini OS ------------------------------------------
    replacement_policy: str = "lru"
    placement_strategy: PlacementStrategy = PlacementStrategy.CONTIGUOUS_FIRST_FIT

    # --- baselines / workloads -----------------------------------------------
    #: Host-CPU cycles per hardware cycle for the software baseline.  With the
    #: default 1 GHz host and 100 MHz fabric this makes software roughly 4x
    #: slower per byte than the hardware datapath, which matches published
    #: software-vs-FPGA crypto comparisons of the paper's era (e.g. ~25-30
    #: cycles/byte software AES vs a few cycles/byte for a compact core).
    software_slowdown: float = 40.0
    seed: int = 0

    # --- tracing --------------------------------------------------------------
    enable_trace: bool = False

    def __post_init__(self) -> None:
        if self.rom_capacity_bytes <= 0 or self.ram_capacity_bytes <= 0:
            raise ValueError("memory capacities must be positive")
        if self.compression_window_bytes <= 0:
            raise ValueError("the compression window must be positive")
        if self.software_slowdown <= 0:
            raise ValueError("the software slowdown factor must be positive")

    # ------------------------------------------------------------------ views
    def geometry(self) -> FabricGeometry:
        """The fabric geometry implied by this configuration."""
        return FabricGeometry(
            columns=self.fabric_columns,
            rows=self.fabric_rows,
            clb_rows_per_frame=self.clb_rows_per_frame,
            luts_per_clb=self.luts_per_clb,
            lut_inputs=self.lut_inputs,
            switch_bytes_per_clb=self.switch_bytes_per_clb,
        )

    def with_overrides(self, **overrides) -> "CoprocessorConfig":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)


#: A small configuration (tiny fabric, small memories) that keeps unit tests fast.
SMALL_CONFIG = CoprocessorConfig(
    fabric_columns=8,
    fabric_rows=32,
    clb_rows_per_frame=4,
    rom_capacity_bytes=1 * 1024 * 1024,
    ram_capacity_bytes=256 * 1024,
)
