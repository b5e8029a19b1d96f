"""The configuration module.

"The configuration module decompresses the compressed bit-stream window by
window and passes the configuration bit-stream to the FPGA to configure it."

A reconfiguration has three timed phases, and each is one advance of the
shared clock:

1. **ROM fetch** — the compressed image is read from the ROM in
   :data:`ROM_CHUNK_BYTES` bursts (:meth:`ConfigurationRom.read`).
2. **Decompress** — window by window on the microcontroller clock; a window
   costs :data:`DECOMPRESS_CYCLES_PER_BYTE` cycles per byte of the mean of its
   compressed and raw lengths, rounded to whole nanoseconds per window.
3. **Port** — the frame payloads go through the configuration port in one
   CRC-checked transfer (:meth:`ConfigurationPort.configure`).

With ``overlap_decompress=True`` the module is a pipeline: window *i+1*
decompresses while window *i* is written, so only the decompression the
port's transfer cannot hide stays on the clock, and the reconfiguration takes
``rom + max(decompress, port) + one window fill`` (never more than the serial
sum).  ``tests/oracles/miss_formula.py`` writes the same sums from the stored
image and the configuration alone; tier-1 holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bitstream.format import Bitstream, parse_bitstream
from repro.bitstream.window import CompressedImage, WindowedCompressor, WindowedDecompressor
from repro.bitstream.codecs import get_codec
from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError
from repro.fpga.executor import FunctionExecutor
from repro.fpga.frame import FrameRegion
from repro.mcu.microcontroller import MCU_CLOCK_HZ
from repro.memory.rom import ConfigurationRom
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder

#: Microcontroller cycles a window costs per byte of the mean of its
#: compressed and raw lengths.
DECOMPRESS_CYCLES_PER_BYTE = 2.0

#: Bytes per ROM burst when the module fetches a compressed image.
ROM_CHUNK_BYTES = 512


@dataclass
class ReconfigurationReport:
    """What one on-demand reconfiguration wrote and how long each phase took.

    ``total_time_ns`` is the clock's advance over the whole reconfiguration:
    the three phases' sum, or less when a pipelined module hides part of the
    decompression behind the port's transfer.
    """

    frames: int
    rom_time_ns: int
    decompress_time_ns: int
    port_time_ns: int
    total_time_ns: int


class ConfigurationModule:
    """Streams compressed bit-streams from the ROM onto the fabric."""

    def __init__(
        self,
        rom: ConfigurationRom,
        device: FPGADevice,
        clock: Clock,
        overlap_decompress: bool = False,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.rom = rom
        self.device = device
        self.clock = clock
        self.domain = ClockDomain("mcu-config", MCU_CLOCK_HZ)
        self.overlap_decompress = overlap_decompress
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        # blob -> parsed CompressedImage; repeated reconfigurations of the
        # same function re-read the ROM (timed) but skip re-parsing and
        # re-CRC-checking an image already seen.
        self._image_cache: dict = {}

    # ------------------------------------------------------------ decompress
    def _image(self, blob: bytes) -> CompressedImage:
        """*blob* parsed; a blob seen before skips re-parsing and re-CRC-checking."""
        image = self._image_cache.get(blob)
        if image is None:
            image = self._image_cache[blob] = CompressedImage.from_bytes(blob)
        return image

    def _decode(self, image: CompressedImage) -> tuple:
        """Decompress and parse *image* once; returns (window lengths, bitstream).

        The memo rides on the image object itself, so its lifetime (and the
        cache's) is exactly the image's.  The decompression time is a sum
        over the recorded window lengths, so simulated time is the same with
        or without a memo hit; only the host-side byte crunching is skipped.
        """
        memo = getattr(image, "_decoded_memo", None)
        if memo is not None:
            return memo
        decompressor = WindowedDecompressor(image, get_codec(image.codec_name))
        raw_windows = list(decompressor.windows())
        lengths = tuple(len(window) for window in raw_windows)
        memo = (lengths, parse_bitstream(b"".join(raw_windows)))
        image._decoded_memo = memo
        return memo

    def _window_time_ns(self, compressed_bytes: int, raw_bytes: int) -> int:
        """MCU time to turn one window between its compressed and raw forms:
        the cost covers reading the one and producing the other."""
        cycles = DECOMPRESS_CYCLES_PER_BYTE * (compressed_bytes + raw_bytes) / 2.0
        return self.domain.cycles_to_ns(cycles)

    # ------------------------------------------------------------- transfer
    def compress_for_transfer(
        self, bitstream: Bitstream, codec_name: str, window_bytes: int
    ) -> bytes:
        """Compress a captured bit-stream for a host-side migration transfer.

        The mirror image of the decompression path: the serialised bit-stream
        is windowed and compressed with the card's codec, charging the same
        per-byte MCU cycle cost as decompression (the model treats the two
        directions as symmetric).  Returns the blob, a self-describing
        :class:`CompressedImage` serialisation — exactly what
        :meth:`restore_from_blob` consumes on the destination.
        """
        raw = bitstream.to_bytes()
        compressor = WindowedCompressor(get_codec(codec_name), window_bytes)
        image = compressor.compress(raw)
        elapsed = sum(
            self._window_time_ns(len(compressed), min(window_bytes, len(raw) - index * window_bytes))
            for index, compressed in enumerate(image.windows)
        )
        self.clock.advance(elapsed)
        return image.to_bytes()

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
            image = self._image(blob)
            _, bitstream = self._decode(image)
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
        return self._apply_image(name, image, self.clock.now, region, executor)

    # -------------------------------------------------------------- configure
    def reconfigure(
        self,
        name: str,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Full on-demand reconfiguration path: ROM → decompress → config port."""
        started = self.clock.now
        blob = self.rom.read_bitstream(name, chunk_bytes=ROM_CHUNK_BYTES)
        return self._apply_image(name, self._image(blob), started, region, executor)

    def _apply_image(
        self,
        name: str,
        image: CompressedImage,
        started: int,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Shared decompress-and-configure tail of reconfigure/restore; the
        image's fetch (if any) ran from *started* to now."""
        rom_time = self.clock.now - started
        lengths, bitstream = self._decode(image)
        decompress_time = sum(
            self._window_time_ns(len(compressed), raw_length)
            for compressed, raw_length in zip(image.windows, lengths)
        )
        exposed = decompress_time
        if self.overlap_decompress:
            # A pipeline: window i+1 decompresses while window i is written,
            # so the port's transfer hides all but the decompression it
            # cannot cover, and one window of fill latency remains.
            transfer = self.device.port.transfer_time_ns(bitstream.frames)
            window_fill = round(decompress_time / max(1, image.window_count))
            exposed = min(decompress_time, max(decompress_time - transfer, 0) + window_fill)
        self.clock.advance(exposed)
        port_time = self.device.configure_partial(bitstream, region, executor)
        report = ReconfigurationReport(
            frames=len(region),
            rom_time_ns=rom_time,
            decompress_time_ns=decompress_time,
            port_time_ns=port_time,
            total_time_ns=self.clock.now - started,
        )
        self.trace.record(
            "config-module",
            "reconfigure",
            started,
            self.clock.now,
            function=name,
            frames=len(region),
        )
        return report
