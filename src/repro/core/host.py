"""The host-side driver.

Mirrors what a kernel driver plus user-space library would do: stage input
data into the card's window (programmed I/O when small, DMA above
:attr:`HostDriver.PIO_THRESHOLD_BYTES`), write the FUNCTION_ID, INPUT_LENGTH
and COMMAND registers, read the STATUS register and read the result back.
The card acts on the COMMAND write (:meth:`CoprocessorCard.command`), so each
command is one dispatch from the host to the microcontroller; every access
around it is one timed bus transaction.  End-to-end latencies measured
through the driver therefore include the PCI transfer costs, which is the
number the offload-speedup experiment (E5) compares against host-only
execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.card import OUTPUT_OFFSET, CoprocessorCard
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
from repro.pci import READ, REGISTERS, WINDOW, WRITE, PciBus


#: Bytes per DMA burst transaction.
DMA_BURST_BYTES = 256


@dataclass
class HostCallResult:
    """Result of one host-visible call."""

    output: bytes
    card_result: ExecutionResult
    total_ns: int


class HostDriver:
    """Drives a :class:`CoprocessorCard` across the PCI model."""

    #: Input data larger than this moves by DMA; smaller payloads use
    #: programmed I/O (mirroring real driver behaviour).
    PIO_THRESHOLD_BYTES = 64

    def __init__(self, bus: PciBus, card: CoprocessorCard) -> None:
        self.bus = bus
        self.card = card
        self.coprocessor: AgileCoprocessor = card.coprocessor
        self.clock = bus.clock

    # ------------------------------------------------------------ plumbing
    def _move(self, action: str, address: int, length: int) -> None:
        """Move *length* bytes between host memory and the card's window."""
        if length == 0:
            return
        if length <= self.PIO_THRESHOLD_BYTES:
            self.bus.transfer(action, address, length)
        else:
            self.bus.dma(action, address, length, DMA_BURST_BYTES)

    def _write_input(self, data: bytes) -> None:
        if len(data) > OUTPUT_OFFSET:
            # Refused before the bus: the window's input half cannot hold it.
            raise CoprocessorError(
                f"{len(data)} bytes do not fit the card's {OUTPUT_OFFSET}-byte input window"
            )
        self._move(WRITE, WINDOW, len(data))

    def _command(self, kind: CommandKind, function_id: int, length: int, data: bytes = b""):
        """Write the command registers, read STATUS; returns the card's result."""
        transfer = self.bus.transfer
        transfer(WRITE, REGISTERS + REG_FUNCTION_ID, 4)
        transfer(WRITE, REGISTERS + REG_INPUT_LENGTH, 4)
        status, result = transfer(
            WRITE, REGISTERS + REG_COMMAND, 4, self.card.command, kind, function_id, length, data
        )
        transfer(READ, REGISTERS + REG_STATUS, 4)
        if status != STATUS_OK:
            raise CoprocessorError(f"card returned status {status} for {kind.name}")
        return result

    def _read_output(self, length: int) -> None:
        """Read OUTPUT_LENGTH, then *length* bytes of the window's output half."""
        self.bus.transfer(READ, REGISTERS + REG_OUTPUT_LENGTH, 4)
        self._move(READ, WINDOW + OUTPUT_OFFSET, length)

    # ------------------------------------------------------------------ API
    def call(self, name: str, data: bytes) -> HostCallResult:
        """Execute *name* on *data*, end to end through the PCI."""
        bank = self.coprocessor.bank
        if name not in bank:
            raise UnknownFunctionError(name)
        function = bank.by_name(name)
        started = self.clock.now
        self._write_input(data)
        result = self._command(CommandKind.EXECUTE, function.function_id, len(data), data)
        self._read_output(len(result.output))
        return HostCallResult(result.output, result, self.clock.now - started)

    def preload(self, name: str) -> None:
        """Ask the card to pre-load *name* (hides reconfiguration latency)."""
        function = self.coprocessor.bank.by_name(name)
        self._command(CommandKind.PRELOAD, function.function_id, 0)

    def evict(self, name: str) -> None:
        function = self.coprocessor.bank.by_name(name)
        self._command(CommandKind.EVICT, function.function_id, 0)

    def reset_card(self) -> None:
        self._command(CommandKind.RESET, 0, 0)

    def scrub_card(self) -> int:
        """Run one readback-scrub pass on the card; returns frames repaired.

        Requires the card's fault protection to be enabled (the card answers
        STATUS_BAD_COMMAND otherwise, surfaced here as
        :class:`~repro.core.exceptions.CoprocessorError`).  The count comes
        back in the OUTPUT_LENGTH register.
        """
        corrected = self._command(CommandKind.SCRUB, 0, 0)
        self._read_output(0)
        return corrected

    # ------------------------------------------------------------- migration
    def capture_function(self, name: str) -> bytes:
        """CAPTURE: readback a resident function into a migration blob.

        The card charges the frame readback and compression; reading the blob
        out of the data window pays the real PCI transfer cost (PIO or DMA by
        size), exactly like an execution result.
        """
        function = self.coprocessor.bank.by_name(name)
        blob = self._command(CommandKind.CAPTURE, function.function_id, 0)
        self._read_output(len(blob))
        return blob

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
        self._command(CommandKind.RESTORE, function.function_id, len(blob), blob)

    def defrag_card(self, max_moves: int = 0) -> int:
        """DEFRAG: one compaction pass; returns the frames moved.

        ``max_moves=0`` runs an unbounded pass.  Requires the card's
        defragmenter to be enabled (STATUS_BAD_COMMAND otherwise, surfaced as
        :class:`~repro.core.exceptions.CoprocessorError`).  The budget goes
        out in INPUT_LENGTH and the count comes back in OUTPUT_LENGTH.
        """
        moved = self._command(CommandKind.DEFRAG, 0, max_moves)
        self._read_output(0)
        return moved


def build_host_system(coprocessor: AgileCoprocessor) -> HostDriver:
    """Put a co-processor card on a PCI bus and return a ready driver.

    The bus shares the co-processor's clock and trace recorder so card-side
    and host-side times lie on one timeline.
    """
    bus = PciBus(coprocessor.clock, coprocessor.trace)
    return HostDriver(bus, CoprocessorCard(coprocessor))
