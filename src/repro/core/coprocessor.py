"""The agile algorithm-on-demand co-processor.

:class:`AgileCoprocessor` is the card-level model: it owns the shared clock,
the ROM, the local RAM, the FPGA device, the microcontroller (with its mini
OS) and the function bank, and exposes the two operations the paper's host
performs — *download the bank* and *execute a function on demand*.

The PCI path (host driver, DMA, command registers) is layered on top in
:mod:`repro.core.card` and :mod:`repro.core.host`; this class can also be used
directly when an experiment only cares about card-internal behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bitstream.codecs import get_codec
from repro.bitstream.window import COMPRESSION_WINDOW_BYTES, WindowedCompressor
from repro.fpga.bitgen import BitstreamGenerator
from repro.fpga.device import FPGADevice
from repro.fpga.placer import Placer, PlacementStrategy
from repro.functions.bank import FunctionBank
from repro.core.config import CoprocessorConfig
from repro.core.exceptions import UnknownFunctionError
from repro.core.stats import CoprocessorStatistics
from repro.mcu.config_module import ConfigurationModule
from repro.mcu.microcontroller import ExecutionResult, Microcontroller
from repro.mcu.minios.minios import MiniOs
from repro.mcu.minios.policies import build_policy
from repro.memory.ram import LocalRam
from repro.memory.records import FunctionRecord
from repro.memory.rom import ConfigurationRom
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


class AgileCoprocessor:
    """Card-level model of the FPGA-based agile algorithm-on-demand co-processor."""

    def __init__(self, config: CoprocessorConfig, bank: FunctionBank) -> None:
        self.config = config
        self.bank = bank
        self.clock = Clock()
        self.trace = TraceRecorder(enabled=config.enable_trace)
        geometry = config.geometry()
        self.geometry = geometry

        self.rom = ConfigurationRom(config.rom_capacity_bytes, clock=self.clock, trace=self.trace)
        self.ram = LocalRam(config.ram_capacity_bytes)
        self.device = FPGADevice(geometry, clock=self.clock, trace=self.trace)
        self.minios = MiniOs(
            geometry,
            policy=build_policy(config.replacement_policy, seed=config.seed),
            placement_strategy=config.placement_strategy,
        )
        self.config_module = ConfigurationModule(
            self.rom,
            self.device,
            self.clock,
            overlap_decompress=config.overlap_decompress,
            trace=self.trace,
        )
        self.mcu = Microcontroller(
            bank=bank,
            ram=self.ram,
            device=self.device,
            minios=self.minios,
            config_module=self.config_module,
            clock=self.clock,
            trace=self.trace,
        )
        self.stats = CoprocessorStatistics()
        self._bitgen = BitstreamGenerator(geometry)
        self._bank_downloaded = False
        self.download_reports: Dict[str, Dict[str, float]] = {}
        #: Readback-scrub service; installed by enable_fault_protection().
        self.scrubber = None
        #: Frame-compaction service; installed by enable_defrag().
        self.defragmenter = None

    # ----------------------------------------------------------- bank download
    def download_bank(self) -> Dict[str, FunctionRecord]:
        """Generate, compress and download every function's bit-stream to the ROM.

        This is the host's one-time setup step.  Returns the ROM records by
        function name.
        """
        codec = get_codec(self.config.codec_name)
        compressor = WindowedCompressor(codec)
        cache = self._bitgen.cache
        records: Dict[str, FunctionRecord] = {}
        scratch_placer = Placer(self.geometry, strategy=PlacementStrategy.CONTIGUOUS_FIRST_FIT)
        for function in self.bank:
            netlist = function.cached_netlist(self.geometry)
            frames_needed = function.frames_required(self.geometry)
            if netlist is not None:
                placement = scratch_placer.place(
                    netlist, self.geometry.all_frames(), frames_needed=frames_needed
                )
                bitstream = self._bitgen.generate(
                    netlist,
                    placement,
                    function_id=function.function_id,
                    input_bytes=function.spec.input_bytes,
                    output_bytes=function.spec.output_bytes,
                )
            else:
                payloads = self._bitgen.synthetic_frames(
                    frame_count=frames_needed,
                    lut_count=function.spec.lut_estimate,
                    seed=self.config.seed + function.function_id,
                )
                from repro.bitstream.format import build_bitstream

                bitstream = build_bitstream(
                    function_id=function.function_id,
                    function_name=function.name,
                    frame_payloads=payloads,
                    input_bytes=function.spec.input_bytes,
                    output_bytes=function.spec.output_bytes,
                    lut_count=function.spec.lut_estimate,
                )
            raw = bitstream.to_bytes()
            # Compression is pure in (codec, window, raw bytes): memoise the
            # stored image so rebuilding a card (every experiment sweep, every
            # baseline engine) compresses each distinct image once.
            stored = cache.lookup(
                ("image", codec.name, COMPRESSION_WINDOW_BYTES, raw),
                lambda: compressor.compress(raw).to_bytes(),
            )
            record = self.rom.download(
                function_id=function.function_id,
                name=function.name,
                compressed_image=stored,
                uncompressed_size=len(raw),
                input_bytes=function.spec.input_bytes,
                output_bytes=function.spec.output_bytes,
                frame_count=bitstream.header.frame_count,
                codec_name=codec.name,
            )
            records[function.name] = record
            self.download_reports[function.name] = {
                "raw_bytes": float(len(raw)),
                "stored_bytes": float(len(stored)),
                "compression_ratio": len(raw) / max(1, len(stored)),
                "frames": float(bitstream.header.frame_count),
            }
        self._bank_downloaded = True
        return records

    @property
    def bank_downloaded(self) -> bool:
        return self._bank_downloaded

    # ---------------------------------------------------------------- execute
    def execute(self, name: str, data: bytes) -> ExecutionResult:
        """Execute function *name* on *data*, loading it on demand if needed."""
        if not self._bank_downloaded:
            self.download_bank()
        if name not in self.bank:
            raise UnknownFunctionError(name)
        result = self.mcu.handle_execute(name, data)
        self.stats.record(result)
        return result

    def preload(self, name: str) -> ExecutionResult:
        """Bring *name* onto the fabric without executing it."""
        if not self._bank_downloaded:
            self.download_bank()
        if name not in self.bank:
            raise UnknownFunctionError(name)
        return self.mcu.ensure_loaded(name)

    def evict(self, name: str) -> None:
        """Explicitly evict *name* from the fabric."""
        self.mcu.evict(name)

    # ------------------------------------------------------------- migration
    def capture_function(self, name: str) -> bytes:
        """Readback-capture resident *name* into a compressed migration blob.

        The blob is self-describing (codec, window size, relocatable
        slot-indexed frames, payload CRC): feed it to :meth:`restore_function`
        on any card whose frames are the same size.
        """
        if name not in self.bank:
            raise UnknownFunctionError(name)
        return self.mcu.capture(name, self.config.codec_name)

    def restore_function(self, name: str, blob: bytes) -> ExecutionResult:
        """Make *name* resident from a migration blob (live migration restore)."""
        if not self._bank_downloaded:
            self.download_bank()
        if name not in self.bank:
            raise UnknownFunctionError(name)
        return self.mcu.restore(name, blob)

    # --------------------------------------------------------------- defrag
    def enable_defrag(self):
        """Install the configuration-memory defragmenter service.

        Idempotent; returns the defragmenter.  Like the scrubber it is a
        mini-OS service, so the DEFRAG PCI command and the fleet's periodic
        defrag orders both reach it through the service registry.
        """
        if self.defragmenter is not None:
            return self.defragmenter
        from repro.mcu.minios.defrag import Defragmenter

        self.defragmenter = Defragmenter(self.minios, self.device, clock=self.clock)
        self.minios.register_service("defrag", self.defragmenter)
        return self.defragmenter

    def defrag(self, max_moves: Optional[int] = None):
        """One compaction pass (``None`` when defrag is not enabled)."""
        return self.mcu.defrag(max_moves=max_moves)

    # ----------------------------------------------------- fault protection
    def enable_fault_protection(self):
        """Install the golden store, hazard detector and scrub service.

        Idempotent.  Functions already live on the fabric are assumed clean
        and their readback is captured as golden.  Returns the scrubber.
        """
        if self.scrubber is not None:
            return self.scrubber
        from repro.faults import FrameHazardDetector, GoldenImageStore, Scrubber

        device = self.device
        golden = GoldenImageStore(self.geometry.frame_config_bytes)
        for _, loaded in sorted(device.loaded_functions.items()):
            golden.capture(
                loaded.region,
                [device.memory.read_frame(a) for a in loaded.region],
            )
        device.golden = golden
        device.hazard_detector = FrameHazardDetector(device.memory)
        self.scrubber = Scrubber(device, golden, clock=self.clock)
        self.minios.register_service("scrubber", self.scrubber)
        return self.scrubber

    def scrub(self, max_frames: Optional[int] = None):
        """One readback-scrub pass (``None`` when protection is disabled)."""
        return self.mcu.scrub(max_frames=max_frames)

    def reset(self) -> None:
        """Clear the fabric, the mini OS and the statistics (keeps the ROM)."""
        self.mcu.reset()
        self.stats.reset()

    # --------------------------------------------------------------- queries
    def loaded_functions(self) -> List[str]:
        return sorted(self.device.loaded_functions)

    def is_loaded(self, name: str) -> bool:
        return self.device.is_loaded(name)

    def rom_layout(self) -> Dict[str, int]:
        return self.rom.layout_summary()
