"""The configuration module.

"The configuration module decompresses the compressed bit-stream window by
window and passes the configuration bit-stream to the FPGA to configure it."

The module therefore has two timed phases per reconfiguration:

1. **Fetch + decompress** — the compressed image is read from the ROM chunk by
   chunk (timed ROM accesses) and decompressed window by window; each window
   charges decompression time on the microcontroller clock proportional to the
   bytes processed.
2. **Frame writes** — the reconstructed bit-stream's frame payloads are pushed
   through the FPGA configuration port into the target region.

With ``overlap_decompress=True`` the module models a pipelined implementation
in which decompression of window *i+1* proceeds while window *i* is being
written: the total time is then bounded by the slower of the two phases plus
one window of fill latency, instead of their sum.  E2 uses both settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bitstream.format import Bitstream, parse_bitstream
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor
from repro.bitstream.codecs import get_codec
from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError
from repro.fpga.executor import FunctionExecutor
from repro.fpga.frame import FrameRegion
from repro.memory.rom import ConfigurationRom
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder


@dataclass
class ReconfigurationReport:
    """Timing breakdown of one on-demand reconfiguration."""

    function: str
    frames: int
    compressed_bytes: int
    uncompressed_bytes: int
    rom_time_ns: int = 0
    decompress_time_ns: int = 0
    config_time_ns: int = 0
    total_time_ns: int = 0
    overlapped: bool = False


class ConfigurationModule:
    """Streams compressed bit-streams from the ROM onto the fabric."""

    def __init__(
        self,
        rom: ConfigurationRom,
        device: FPGADevice,
        clock: Clock,
        mcu_clock_hz: float = 66e6,
        decompress_cycles_per_byte: float = 4.0,
        rom_chunk_bytes: int = 512,
        overlap_decompress: bool = False,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if decompress_cycles_per_byte <= 0:
            raise ValueError("decompression must cost at least some cycles per byte")
        if rom_chunk_bytes <= 0:
            raise ValueError("ROM chunk size must be positive")
        self.rom = rom
        self.device = device
        self.clock = clock
        self.domain = ClockDomain("mcu-config", mcu_clock_hz)
        self.decompress_cycles_per_byte = decompress_cycles_per_byte
        self.rom_chunk_bytes = rom_chunk_bytes
        self.overlap_decompress = overlap_decompress
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.reports: List[ReconfigurationReport] = []
        # blob -> parsed CompressedImage; repeated reconfigurations of the
        # same function re-read the ROM (timed) but skip re-parsing and
        # re-CRC-checking an image already seen.
        self._image_cache: dict = {}

    # ----------------------------------------------------------------- fetch
    def fetch_compressed_image(self, name: str) -> tuple:
        """Timed chunked read of the compressed image from the ROM.

        Returns ``(image, rom_time_ns)``.
        """
        started = self.clock.now
        chunks = list(self.rom.read_bitstream(name, chunk_bytes=self.rom_chunk_bytes))
        rom_time = self.clock.now - started
        blob = b"".join(chunks)
        image = self._image_cache.get(blob)
        if image is None:
            image = CompressedImage.from_bytes(blob)
            self._image_cache[blob] = image
        return image, rom_time

    # ------------------------------------------------------------ decompress
    def _decode(self, image: CompressedImage) -> tuple:
        """Decompress and parse *image* once; returns (raw, lengths, bitstream).

        The memo rides on the image object itself, so its lifetime (and the
        cache's) is exactly the image's.  The timed phases replay the same
        per-window clock advances from the recorded lengths, so simulated
        time is bit-identical with or without a memo hit; only the host-side
        byte crunching is skipped.
        """
        memo = getattr(image, "_decoded_memo", None)
        if memo is not None:
            return memo
        decompressor = WindowedDecompressor(image, get_codec(image.codec_name))
        raw_windows = list(decompressor.windows())
        raw = b"".join(raw_windows)
        lengths = tuple(len(window) for window in raw_windows)
        bitstream = parse_bitstream(raw)
        memo = (raw, lengths, bitstream)
        image._decoded_memo = memo
        return memo

    def decompress_image(self, image: CompressedImage) -> tuple:
        """Windowed decompression, charging MCU time per window.

        Returns ``(raw_bitstream_bytes, decompress_time_ns)``.
        """
        raw, lengths, _ = self._decode(image)
        started = self.clock.now
        for compressed_window, raw_length in zip(image.windows, lengths):
            # The window-by-window cost covers reading the compressed bytes and
            # producing the raw bytes.
            cycles = self.decompress_cycles_per_byte * (len(compressed_window) + raw_length) / 2.0
            self.clock.advance(self.domain.cycles_to_ns(cycles))
        elapsed = self.clock.now - started
        return raw, elapsed

    # ------------------------------------------------------------- transfer
    def compress_for_transfer(
        self, bitstream: Bitstream, codec_name: str, window_bytes: int
    ) -> tuple:
        """Compress a captured bit-stream for a host-side migration transfer.

        The mirror image of the decompression path: the serialised bit-stream
        is windowed and compressed with the card's codec, charging the same
        per-byte MCU cycle cost as decompression (the model treats the two
        directions as symmetric).  Returns ``(blob_bytes, elapsed_ns)`` where
        the blob is a self-describing :class:`CompressedImage` serialisation —
        exactly what :meth:`restore_from_blob` consumes on the destination.
        """
        raw = bitstream.to_bytes()
        compressor = WindowedCompressor(get_codec(codec_name), window_bytes)
        image = compressor.compress(raw)
        started = self.clock.now
        for index, compressed_window in enumerate(image.windows):
            raw_length = min(window_bytes, len(raw) - index * window_bytes)
            cycles = self.decompress_cycles_per_byte * (len(compressed_window) + raw_length) / 2.0
            self.clock.advance(self.domain.cycles_to_ns(cycles))
        return image.to_bytes(), self.clock.now - started

    def _decode_blob(self, name: str, blob: bytes) -> CompressedImage:
        """Parse and sanity-check a migration blob; side-effect free.

        Raises :class:`ConfigurationError` on a truncated/corrupted transfer,
        a blob for a different function, or a frame-size mismatch.  The
        frame-size test is the strongest check the wire format allows — the
        blob does not carry the source fabric's CLB layout; full geometry
        compatibility is the *planner's* job (the rebalancer and the host
        driver both gate on :func:`repro.bitstream.relocate.
        compatible_fabrics`, where both geometries are in hand).
        """
        from repro.bitstream.codecs.base import CodecError
        from repro.bitstream.format import BitstreamFormatError

        try:
            image = self._image_cache.get(blob)
            if image is None:
                image = CompressedImage.from_bytes(blob)
                self._image_cache[blob] = image
            _, _, bitstream = self._decode(image)
        except (CodecError, BitstreamFormatError) as error:
            # A truncated or corrupted transfer fails like a bad bit-stream,
            # not like a programming error: the card answers CONFIG_FAILED
            # and the source copy keeps serving.
            raise ConfigurationError(f"malformed migration blob: {error}") from None
        if bitstream.header.function_name != name:
            raise ConfigurationError(
                f"migration blob carries {bitstream.header.function_name!r}, "
                f"not {name!r}"
            )
        if bitstream.header.frame_payload_bytes != self.device.geometry.frame_config_bytes:
            raise ConfigurationError(
                f"migration blob has {bitstream.header.frame_payload_bytes}-byte "
                f"frames but this fabric uses "
                f"{self.device.geometry.frame_config_bytes}-byte frames"
            )
        return image

    def validate_transfer_blob(self, name: str, blob: bytes) -> None:
        """Check a migration blob without touching the device.

        The microcontroller calls this *before* planning evictions: a bad
        blob must never cost the destination its resident functions.
        """
        self._decode_blob(name, blob)

    def restore_from_blob(
        self,
        name: str,
        blob: bytes,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Configure *region* from a migration blob instead of the ROM.

        The RESTORE half of live migration: the blob (a windowed
        :class:`CompressedImage` produced by :meth:`compress_for_transfer` on
        the source card) is decompressed window by window — same timed path
        as an on-demand load — and written through the configuration port.
        The only difference from :meth:`reconfigure` is the missing ROM fetch:
        the image arrived over the PCI instead.
        """
        image = self._decode_blob(name, blob)
        return self._apply_image(name, image, rom_time=0, region=region, executor=executor)

    # -------------------------------------------------------------- configure
    def reconfigure(
        self,
        name: str,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Full on-demand reconfiguration path: ROM → decompress → config port."""
        image, rom_time = self.fetch_compressed_image(name)
        return self._apply_image(name, image, rom_time=rom_time, region=region, executor=executor)

    def _apply_image(
        self,
        name: str,
        image: CompressedImage,
        rom_time: int,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Shared decompress-and-configure tail of reconfigure/restore."""
        started = self.clock.now - rom_time
        raw, decompress_time = self.decompress_image(image)
        _, _, bitstream = self._decode(image)
        config_time = self.device.configure_partial(bitstream, region, executor)
        total = self.clock.now - started
        if self.overlap_decompress:
            # A pipelined configuration module hides the shorter of the two
            # streaming phases behind the longer one (one window of fill
            # latency remains).  Rewind the clock to model the overlap.
            window_fill = round(decompress_time / max(1, image.window_count))
            overlapped_total = rom_time + max(decompress_time, config_time) + window_fill
            saved = total - overlapped_total
            if saved > 0:
                # The clock cannot run backwards; account the saving by
                # reporting the overlapped total and advancing only to it on
                # the *next* operation.  Since every caller uses the report's
                # total (not raw clock deltas) for latency metrics, reporting
                # is sufficient; the clock keeps the conservative estimate.
                total = overlapped_total
        report = ReconfigurationReport(
            function=name,
            frames=len(region),
            compressed_bytes=image.stored_length,
            uncompressed_bytes=image.original_length,
            rom_time_ns=rom_time,
            decompress_time_ns=decompress_time,
            config_time_ns=config_time,
            total_time_ns=total,
            overlapped=self.overlap_decompress,
        )
        self.reports.append(report)
        self.trace.record(
            "config-module",
            "reconfigure",
            started,
            self.clock.now,
            function=name,
            frames=len(region),
        )
        return report
