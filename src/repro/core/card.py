"""The PCI card: the co-processor behind the host's command protocol.

The card maps a small command register file in BAR0 and a data window in
BAR1: the host stages input in the window's first half, writes the command
registers, and the card's answer to the COMMAND write — a status and the
command's result — is what the host reads back from the STATUS register and
the window's second half.  :meth:`CoprocessorCard.command` is that answer;
the bus time of each access is :class:`~repro.core.host.HostDriver`'s.
"""

from __future__ import annotations

from repro.core.coprocessor import AgileCoprocessor
from repro.mcu.commands import (
    STATUS_BAD_COMMAND,
    STATUS_CAPACITY,
    STATUS_CONFIG_FAILED,
    STATUS_NOT_RESIDENT,
    STATUS_OK,
    STATUS_UNKNOWN_FUNCTION,
    CommandKind,
)
from repro.mcu.minios.policies import CapacityError
from repro.memory.errors import RamCapacityError
from repro.fpga.errors import ConfigurationError, ExecutionError, PlacementError

#: Bytes of the BAR1 data window: input in the first half, output in the second.
WINDOW_BYTES = 128 * 1024
OUTPUT_OFFSET = WINDOW_BYTES // 2
#: The opcodes that name a function in FUNCTION_ID.
_FUNCTION_COMMANDS = frozenset(
    {CommandKind.EXECUTE, CommandKind.PRELOAD, CommandKind.EVICT, CommandKind.CAPTURE, CommandKind.RESTORE}
)


class CoprocessorCard:
    """PCI personality of the agile co-processor."""

    def __init__(self, coprocessor: AgileCoprocessor) -> None:
        self.coprocessor = coprocessor

    def command(self, kind: int, function_id: int, length: int, data: bytes) -> tuple:
        """Run the command the host wrote; returns ``(status, result)``.

        *function_id* and *length* are the FUNCTION_ID and INPUT_LENGTH
        registers (for DEFRAG, INPUT_LENGTH is the move budget, 0 for an
        unbounded pass) and *data* the input the window holds.  The result is
        the :class:`~repro.core.coprocessor.ExecutionResult` of an EXECUTE, the
        blob of a CAPTURE, the frames repaired by a SCRUB or moved by a DEFRAG,
        and ``None`` otherwise or on any status but ``STATUS_OK``.
        """
        copro = self.coprocessor
        if kind == CommandKind.RESET:
            copro.reset()
            return STATUS_OK, None
        if kind == CommandKind.SCRUB:
            scrubbed = copro.scrub()
            if scrubbed is None:  # no fault protection
                return STATUS_BAD_COMMAND, None
            return STATUS_OK, scrubbed.corrected
        if kind == CommandKind.DEFRAG:
            try:
                defragged = copro.defrag(max_moves=length or None)
            except ConfigurationError:
                # A failed transfer stops the pass mid-compaction; the
                # functions are all intact where they were.
                return STATUS_CONFIG_FAILED, None
            if defragged is None:  # no defragmenter
                return STATUS_BAD_COMMAND, None
            return STATUS_OK, defragged.frames_moved
        if kind not in _FUNCTION_COMMANDS:
            return STATUS_BAD_COMMAND, None
        try:
            name = copro.bank.by_id(function_id).name
        except KeyError:
            return STATUS_UNKNOWN_FUNCTION, None
        if kind == CommandKind.EVICT:
            copro.evict(name)
            return STATUS_OK, None
        if kind == CommandKind.CAPTURE:
            try:
                result = output = copro.capture_function(name)
            except ExecutionError:
                return STATUS_NOT_RESIDENT, None
        else:
            try:
                if kind == CommandKind.PRELOAD:
                    copro.preload(name)
                    return STATUS_OK, None
                if kind == CommandKind.RESTORE:
                    copro.restore_function(name, data)
                    return STATUS_OK, None
                result = copro.execute(name, data)
            except (CapacityError, RamCapacityError):
                # The function's frames, or its input and output buffers,
                # do not fit the card.
                return STATUS_CAPACITY, None
            except (ConfigurationError, PlacementError):
                # A CRC mismatch, a collision, a blob of another frame size,
                # or enough free frames but no admissible placement on a
                # fragmented contiguous-only fabric: the host can DEFRAG
                # and retry.
                return STATUS_CONFIG_FAILED, None
            output = result.output
        if len(output) > WINDOW_BYTES - OUTPUT_OFFSET:
            # A result must fit the window's output half; one that does not
            # fails loudly rather than truncate.
            return STATUS_BAD_COMMAND, None
        return STATUS_OK, result

    # -------------------------------------------------------------- queries
    def resident_functions(self) -> list:
        """Configuration residency as the card would report it to the host.

        Models a (zero-cost) sideband status query a fleet dispatcher uses for
        affinity routing; delegates to the mini OS's replacement table.
        """
        return self.coprocessor.mcu.resident_functions()

    @property
    def free_frames(self) -> int:
        """Sideband capacity query: unclaimed configuration frames."""
        return self.coprocessor.mcu.minios.free_count
