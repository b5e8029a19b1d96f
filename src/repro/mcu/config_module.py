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
        # blob -> what a load of it needs: (bit-stream, decompression ns, port
        # ns, window count).  A repeated load of one function re-reads the ROM
        # (timed) but decodes once; a blob that fails to decode, or that a
        # migration refuses, is never stored.
        self._decode_memo: dict = {}

    # ------------------------------------------------------------ decompress
    def _decode(self, blob: bytes) -> tuple:
        """``(bit-stream, decompression ns, port ns, window count)`` of
        *blob*, decoded now; the callers keep it in the memo.

        Neither time depends on the region: the decompression time is the sum
        of the per-window rounded terms and the port time is
        :meth:`~repro.fpga.config_port.ConfigurationPort.transfer_time_ns` of
        the frames, so simulated time is the same with or without a memo hit;
        only the host-side work is skipped.
        """
        image = CompressedImage.from_bytes(blob)
        raw_windows = list(WindowedDecompressor(image, get_codec(image.codec_name)).windows())
        bitstream = parse_bitstream(b"".join(raw_windows))
        decompress_time = sum(
            self._window_time_ns(len(compressed), len(raw))
            for compressed, raw in zip(image.windows, raw_windows)
        )
        port_time = self.device.port.transfer_time_ns(bitstream.frames)
        return bitstream, decompress_time, port_time, image.window_count

    def _window_time_ns(self, compressed_bytes: int, raw_bytes: int) -> int:
        """MCU time to turn one window between its compressed and raw forms:
        the cost covers reading the one and producing the other."""
        cycles = DECOMPRESS_CYCLES_PER_BYTE * (compressed_bytes + raw_bytes) / 2.0
        return self.domain.cycles_to_ns(cycles)

    # ------------------------------------------------------------- transfer
    def compress_for_transfer(self, bitstream: Bitstream, codec_name: str) -> bytes:
        """Compress a captured bit-stream for a host-side migration transfer.

        The mirror image of the decompression path: the serialised bit-stream
        is windowed and compressed with the card's codec, charging the same
        per-byte MCU cycle cost as decompression (the model treats the two
        directions as symmetric).  Returns the blob, a self-describing
        :class:`CompressedImage` serialisation — exactly what
        :meth:`restore_from_blob` consumes on the destination.
        """
        raw = bitstream.to_bytes()
        image = WindowedCompressor(get_codec(codec_name)).compress(raw)
        window_bytes = image.window_bytes
        elapsed = sum(
            self._window_time_ns(len(compressed), min(window_bytes, len(raw) - index * window_bytes))
            for index, compressed in enumerate(image.windows)
        )
        self.clock.advance(elapsed)
        return image.to_bytes()

    def _decode_blob(self, name: str, blob: bytes) -> tuple:
        """Decode and sanity-check a migration blob; stores it in the memo
        only once it passes, and touches nothing else.

        Raises :class:`ConfigurationError` on a truncated/corrupted transfer,
        a blob for a different function, or a frame-size mismatch.  The
        frame-size test is the whole compatibility test: every card's CLB has
        the same shape, so frames of equal size are interchangeable (the
        rebalancer gates on the same equality when it picks a destination).
        """
        from repro.bitstream.codecs.base import CodecError
        from repro.bitstream.format import BitstreamFormatError

        decoded = self._decode_memo.get(blob)
        if decoded is None:
            try:
                decoded = self._decode(blob)
            except (CodecError, BitstreamFormatError) as error:
                # A truncated or corrupted transfer fails like a bad
                # bit-stream, not like a programming error: the card answers
                # CONFIG_FAILED and the source copy keeps serving.
                raise ConfigurationError(f"malformed migration blob: {error}") from None
        header = decoded[0].header
        if header.function_name != name:
            raise ConfigurationError(
                f"migration blob carries {header.function_name!r}, not {name!r}"
            )
        if header.frame_payload_bytes != self.device.geometry.frame_config_bytes:
            raise ConfigurationError(
                f"migration blob has {header.frame_payload_bytes}-byte "
                f"frames but this fabric uses "
                f"{self.device.geometry.frame_config_bytes}-byte frames"
            )
        self._decode_memo[blob] = decoded
        return decoded

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
        decoded = self._decode_blob(name, blob)
        return self._apply(name, decoded, self.clock.now, region, executor)

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
        decoded = self._decode_memo.get(blob)
        if decoded is None:
            decoded = self._decode_memo[blob] = self._decode(blob)
        return self._apply(name, decoded, started, region, executor)

    def _apply(
        self,
        name: str,
        decoded: tuple,
        started: int,
        region: FrameRegion,
        executor: FunctionExecutor,
    ) -> ReconfigurationReport:
        """Shared decompress-and-configure tail of reconfigure/restore, for
        *decoded* (:meth:`_decode`); the image's fetch (if any) ran from
        *started* to now."""
        rom_time = self.clock.now - started
        bitstream, decompress_time, transfer, window_count = decoded
        exposed = decompress_time
        if self.overlap_decompress:
            # A pipeline: window i+1 decompresses while window i is written,
            # so the port's transfer hides all but the decompression it
            # cannot cover, and one window of fill latency remains.
            window_fill = round(decompress_time / max(1, window_count))
            exposed = min(decompress_time, max(decompress_time - transfer, 0) + window_fill)
        self.clock.advance(exposed)
        port_time = self.device.configure_partial(bitstream, region, executor, transfer)
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
