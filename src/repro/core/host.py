"""The host-side driver.

Mirrors what a kernel driver plus user-space library would do: enumerate the
card, stage input data into the card's window by DMA, write the command
registers, poll the status register and read the result back.  End-to-end
latencies measured through the driver therefore include the PCI transfer
costs, which is the number the offload-speedup experiment (E5) compares
against host-only execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.card import CoprocessorCard
from repro.core.coprocessor import AgileCoprocessor, ExecutionResult
from repro.core.exceptions import CoprocessorError, UnknownFunctionError
from repro.mcu.commands import (
    REG_COMMAND,
    REG_FUNCTION_ID,
    REG_INPUT_LENGTH,
    REG_OUTPUT_LENGTH,
    REG_STATUS,
    STATUS_OK,
    CommandKind,
)
from repro.pci.bridge import HostBridge
from repro.pci.bus import PciBus


@dataclass
class HostCallResult:
    """Result of one host-visible call."""

    output: bytes
    card_result: Optional[ExecutionResult]
    total_ns: int


class HostDriver:
    """Drives a :class:`CoprocessorCard` across the PCI model."""

    #: Input data larger than this moves by DMA; smaller payloads use
    #: programmed I/O (mirroring real driver behaviour).
    PIO_THRESHOLD_BYTES = 64

    def __init__(self, bus: PciBus, bridge: HostBridge, card: CoprocessorCard) -> None:
        self.bus = bus
        self.bridge = bridge
        self.card = card
        bridge.enumerate()

    # ------------------------------------------------------------ plumbing
    @property
    def coprocessor(self) -> AgileCoprocessor:
        return self.card.coprocessor

    @property
    def clock(self):
        return self.bus.clock

    def _write_input(self, data: bytes) -> None:
        if not data:
            return
        if len(data) <= self.PIO_THRESHOLD_BYTES:
            self.bridge.write_window(self.card.name, 0, data)
        else:
            self.bridge.dma_to_card(self.card.name, 0, data)

    def _read_output(self, length: int) -> bytes:
        if length == 0:
            return b""
        if length <= self.PIO_THRESHOLD_BYTES:
            return self.bridge.read_window(self.card.name, self.card.output_offset, length)
        return self.bridge.dma_from_card(self.card.name, self.card.output_offset, length)

    def _issue_command(self, kind: CommandKind, function_id: int, input_length: int) -> None:
        self.bridge.write_register(self.card.name, REG_FUNCTION_ID, function_id)
        self.bridge.write_register(self.card.name, REG_INPUT_LENGTH, input_length)
        self.bridge.write_register(self.card.name, REG_COMMAND, int(kind))
        status = self.bridge.read_register(self.card.name, REG_STATUS)
        if status != STATUS_OK:
            raise CoprocessorError(f"card returned status {status} for {kind.name}")

    # ------------------------------------------------------------------ API
    def call(self, name: str, data: bytes) -> HostCallResult:
        """Execute *name* on *data*, end to end through the PCI."""
        if name not in self.coprocessor.bank:
            raise UnknownFunctionError(name)
        function = self.coprocessor.bank.by_name(name)
        started = self.clock.now
        self._write_input(data)
        self._issue_command(CommandKind.EXECUTE, function.function_id, len(data))
        output_length = self.bridge.read_register(self.card.name, REG_OUTPUT_LENGTH)
        output = self._read_output(output_length)
        return HostCallResult(
            output=output,
            card_result=self.card.last_result,
            total_ns=self.clock.now - started,
        )

    def preload(self, name: str) -> None:
        """Ask the card to pre-load *name* (hides reconfiguration latency)."""
        function = self.coprocessor.bank.by_name(name)
        self._issue_command(CommandKind.PRELOAD, function.function_id, 0)

    def evict(self, name: str) -> None:
        function = self.coprocessor.bank.by_name(name)
        self._issue_command(CommandKind.EVICT, function.function_id, 0)

    def reset_card(self) -> None:
        self._issue_command(CommandKind.RESET, 0, 0)

    def scrub_card(self) -> int:
        """Run one readback-scrub pass on the card; returns frames repaired.

        Requires the card's fault protection to be enabled (the card answers
        STATUS_BAD_COMMAND otherwise, surfaced here as
        :class:`~repro.core.exceptions.CoprocessorError`).
        """
        self._issue_command(CommandKind.SCRUB, 0, 0)
        return self.bridge.read_register(self.card.name, REG_OUTPUT_LENGTH)

    # ------------------------------------------------------------- migration
    def capture_function(self, name: str) -> bytes:
        """CAPTURE: readback a resident function into a migration blob.

        The card charges the frame readback and compression; reading the blob
        out of the data window pays the real PCI transfer cost (PIO or DMA by
        size), exactly like an execution result.
        """
        function = self.coprocessor.bank.by_name(name)
        self._issue_command(CommandKind.CAPTURE, function.function_id, 0)
        length = self.bridge.read_register(self.card.name, REG_OUTPUT_LENGTH)
        return self._read_output(length)

    def restore_function(self, name: str, blob: bytes) -> None:
        """RESTORE: make *name* resident from a migration blob.

        Stages the blob into the card's window (PIO or DMA by size) and
        issues the RESTORE command; the card decompresses and configures
        through its normal on-demand path, mini-OS placement included.
        """
        if not blob:
            raise CoprocessorError("a migration blob cannot be empty")
        function = self.coprocessor.bank.by_name(name)
        self._write_input(blob)
        self._issue_command(CommandKind.RESTORE, function.function_id, len(blob))

    def defrag_card(self, max_moves: int = 0) -> int:
        """DEFRAG: one compaction pass; returns the frames moved.

        ``max_moves=0`` runs an unbounded pass.  Requires the card's
        defragmenter to be enabled (STATUS_BAD_COMMAND otherwise, surfaced as
        :class:`~repro.core.exceptions.CoprocessorError`).
        """
        self._issue_command(CommandKind.DEFRAG, 0, max_moves)
        return self.bridge.read_register(self.card.name, REG_OUTPUT_LENGTH)


def build_host_system(coprocessor: AgileCoprocessor) -> HostDriver:
    """Wire a co-processor card onto a PCI bus and return a ready driver.

    The bus shares the co-processor's clock so card-side and host-side times
    lie on one timeline.
    """
    from repro.pci.bus import PciBusTiming

    bus = PciBus(
        clock=coprocessor.clock,
        timing=PciBusTiming(
            clock_hz=coprocessor.config.pci_clock_hz,
            bus_width_bytes=coprocessor.config.pci_bus_width_bytes,
        ),
        trace=coprocessor.trace,
    )
    card = CoprocessorCard(coprocessor)
    bus.attach(card)
    bridge = HostBridge(bus, dma_burst_bytes=coprocessor.config.dma_burst_bytes)
    return HostDriver(bus, bridge, card)
