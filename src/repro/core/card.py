"""The PCI card: the co-processor packaged behind a PCI register interface.

The card maps a small command register file in BAR0 and a data window in
BAR1.  The host driver stages input data into the window, writes the command
registers, and the register-write hook runs the co-processor; results are
placed back into the window for the driver to read out.
"""

from __future__ import annotations

from typing import Optional

from repro.core.coprocessor import AgileCoprocessor, ExecutionResult
from repro.mcu.commands import (
    REG_COMMAND,
    REG_FUNCTION_ID,
    REG_INPUT_LENGTH,
    REG_OUTPUT_LENGTH,
    REG_STATUS,
    REG_TIME_HIGH,
    REG_TIME_LOW,
    STATUS_BAD_COMMAND,
    STATUS_CAPACITY,
    STATUS_CONFIG_FAILED,
    STATUS_NOT_RESIDENT,
    STATUS_OK,
    STATUS_UNKNOWN_FUNCTION,
    CommandKind,
)
from repro.mcu.minios.policies import CapacityError
from repro.fpga.errors import ConfigurationError, ExecutionError, PlacementError
from repro.pci.device import PciDevice, PciFunctionInterface

#: Bytes of the BAR1 data window: input in the first half, output in the second.
WINDOW_BYTES = 128 * 1024


class CoprocessorCard(PciDevice):
    """PCI personality of the agile co-processor.

    Window layout (BAR1): the first half holds input data staged by the host,
    the second half receives output data.
    """

    def __init__(self, coprocessor: AgileCoprocessor) -> None:
        interface = PciFunctionInterface(window_bytes=WINDOW_BYTES)
        super().__init__(name="agile-coprocessor", interface=interface, window_bar_size=WINDOW_BYTES)
        self.coprocessor = coprocessor
        self.output_offset = WINDOW_BYTES // 2
        self.last_result: Optional[ExecutionResult] = None
        interface.on_register_write(REG_COMMAND, self._on_command)

    # ---------------------------------------------------------------- hooks
    def _on_command(self, value: int) -> None:
        try:
            kind = CommandKind(value & 0xFF)
        except ValueError:
            self.interface.write_register(REG_STATUS, STATUS_BAD_COMMAND)
            return
        handler = {
            CommandKind.NOP: self._handle_nop,
            CommandKind.EXECUTE: self._handle_execute,
            CommandKind.PRELOAD: self._handle_preload,
            CommandKind.EVICT: self._handle_evict,
            CommandKind.STATUS: self._handle_nop,
            CommandKind.RESET: self._handle_reset,
            CommandKind.SCRUB: self._handle_scrub,
            CommandKind.CAPTURE: self._handle_capture,
            CommandKind.RESTORE: self._handle_restore,
            CommandKind.DEFRAG: self._handle_defrag,
        }[kind]
        handler()

    def _function_name(self) -> Optional[str]:
        function_id = self.interface.read_register(REG_FUNCTION_ID)
        try:
            return self.coprocessor.bank.by_id(function_id).name
        except KeyError:
            return None

    def _finish(self, status: int, output: bytes = b"", elapsed_ns: int = 0) -> None:
        if output:
            self.interface.write_window(self.output_offset, output)
        self.interface.write_register(REG_OUTPUT_LENGTH, len(output))
        self.interface.write_register(REG_TIME_LOW, elapsed_ns & 0xFFFFFFFF)
        self.interface.write_register(REG_TIME_HIGH, (elapsed_ns >> 32) & 0xFFFFFFFF)
        self.interface.write_register(REG_STATUS, status)

    # -------------------------------------------------------------- handlers
    def _handle_nop(self) -> None:
        self._finish(STATUS_OK)

    def _handle_execute(self) -> None:
        name = self._function_name()
        if name is None:
            self._finish(STATUS_UNKNOWN_FUNCTION)
            return
        length = self.interface.read_register(REG_INPUT_LENGTH)
        if length > self.output_offset:
            self._finish(STATUS_BAD_COMMAND)
            return
        data = self.interface.read_window(0, length)
        try:
            result = self.coprocessor.execute(name, data)
        except CapacityError:
            self._finish(STATUS_CAPACITY)
            return
        except ConfigurationError:
            self._finish(STATUS_CONFIG_FAILED)
            return
        except PlacementError:
            # Enough free frames but no admissible placement (a fragmented
            # CONTIGUOUS_ONLY fabric): the load fails like a wedged port
            # would, and the host can DEFRAG and retry.
            self._finish(STATUS_CONFIG_FAILED)
            return
        self.last_result = result
        self._finish(STATUS_OK, output=result.output, elapsed_ns=result.latency_ns)

    def _handle_preload(self) -> None:
        name = self._function_name()
        if name is None:
            self._finish(STATUS_UNKNOWN_FUNCTION)
            return
        try:
            outcome = self.coprocessor.preload(name)
        except CapacityError:
            self._finish(STATUS_CAPACITY)
            return
        except ConfigurationError:
            # A wedged/stalled configuration port (fault model) fails the
            # preload the same way it fails an on-demand load.
            self._finish(STATUS_CONFIG_FAILED)
            return
        except PlacementError:
            self._finish(STATUS_CONFIG_FAILED)
            return
        self._finish(STATUS_OK, elapsed_ns=outcome.total_time_ns)

    def _handle_scrub(self) -> None:
        """Run one readback-scrub pass; corrected count lands in OUTPUT_LENGTH."""
        result = self.coprocessor.scrub()
        if result is None:
            self._finish(STATUS_BAD_COMMAND)
            return
        self._finish(STATUS_OK, elapsed_ns=result.elapsed_ns)
        # No data payload: reuse the output-length register to report how many
        # frames the pass repaired (the driver's scrub_card returns it).
        self.interface.write_register(REG_OUTPUT_LENGTH, result.corrected)

    def _handle_capture(self) -> None:
        """Readback-capture a resident function; the blob lands in the window."""
        name = self._function_name()
        if name is None:
            self._finish(STATUS_UNKNOWN_FUNCTION)
            return
        before = self.coprocessor.clock.now
        try:
            blob = self.coprocessor.capture_function(name)
        except ExecutionError:
            self._finish(STATUS_NOT_RESIDENT)
            return
        if len(blob) > WINDOW_BYTES - self.output_offset:
            # A migration image must fit the output half of the data window;
            # the bank's images fit 64 KiB easily, but one that does not must
            # fail loudly rather than truncate.
            self._finish(STATUS_BAD_COMMAND)
            return
        self._finish(STATUS_OK, output=blob, elapsed_ns=self.coprocessor.clock.now - before)

    def _handle_restore(self) -> None:
        """Configure a function from a migration blob staged in the window."""
        name = self._function_name()
        if name is None:
            self._finish(STATUS_UNKNOWN_FUNCTION)
            return
        length = self.interface.read_register(REG_INPUT_LENGTH)
        if length == 0 or length > self.output_offset:
            self._finish(STATUS_BAD_COMMAND)
            return
        blob = self.interface.read_window(0, length)
        try:
            outcome = self.coprocessor.restore_function(name, blob)
        except CapacityError:
            self._finish(STATUS_CAPACITY)
            return
        except (ConfigurationError, PlacementError):
            # Wedged port, CRC mismatch, a frame-incompatible blob or no
            # admissible placement on a fragmented contiguous-only fabric:
            # the restore failed the same way a failed on-demand load would.
            self._finish(STATUS_CONFIG_FAILED)
            return
        self._finish(STATUS_OK, elapsed_ns=outcome.total_time_ns)

    def _handle_defrag(self) -> None:
        """Run one defrag pass; frames moved land in OUTPUT_LENGTH."""
        # INPUT_LENGTH doubles as the move budget (0 = unbounded pass).
        budget = self.interface.read_register(REG_INPUT_LENGTH)
        try:
            result = self.coprocessor.defrag(max_moves=budget if budget else None)
        except ConfigurationError:
            # A wedged configuration port stops the pass mid-compaction; the
            # functions are all intact where they were.
            self._finish(STATUS_CONFIG_FAILED)
            return
        if result is None:
            self._finish(STATUS_BAD_COMMAND)
            return
        self._finish(STATUS_OK, elapsed_ns=result.elapsed_ns)
        # No data payload: reuse the output-length register to report how
        # many frames the pass moved (mirrors the SCRUB convention).
        self.interface.write_register(REG_OUTPUT_LENGTH, result.frames_moved)

    def _handle_evict(self) -> None:
        name = self._function_name()
        if name is None:
            self._finish(STATUS_UNKNOWN_FUNCTION)
            return
        self.coprocessor.evict(name)
        self._finish(STATUS_OK)

    def _handle_reset(self) -> None:
        self.coprocessor.reset()
        self._finish(STATUS_OK)

    # -------------------------------------------------------------- queries
    def resident_functions(self) -> list:
        """Configuration residency as the card would report it to the host.

        Models a (zero-cost) sideband status query a fleet dispatcher uses for
        affinity routing; delegates to the mini OS's replacement table.
        """
        return self.coprocessor.mcu.resident_functions()

    def is_resident(self, name: str) -> bool:
        """Sideband point query: does the fabric currently hold *name*?"""
        return self.coprocessor.mcu.minios.is_resident(name)

    @property
    def free_frames(self) -> int:
        """Sideband capacity query: unclaimed configuration frames."""
        return self.coprocessor.mcu.minios.free_frames.free_count
