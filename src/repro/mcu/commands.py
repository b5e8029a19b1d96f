"""The host ↔ microcontroller command protocol.

The host operates the card "by issuing instructions to the microcontroller
through the PCI".  Commands are small fixed-format blocks the driver writes
into the card's register file; the microcontroller decodes and executes them.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass


class CommandError(Exception):
    """Raised when a command block cannot be decoded or is malformed."""


class CommandKind(enum.IntEnum):
    """Opcodes understood by the microcontroller."""

    NOP = 0x00
    #: Execute a function from the bank on data already staged in the window.
    EXECUTE = 0x01
    #: Pre-load a function onto the FPGA without executing it.
    PRELOAD = 0x02
    #: Evict a function from the FPGA, freeing its frames.
    EVICT = 0x03
    #: Query the status/result length of the last command.
    STATUS = 0x04
    #: Reset the card: clear the fabric, the free frame list and statistics.
    RESET = 0x05
    #: Run one readback-scrub pass over configuration memory (detect frames
    #: whose CRC check word no longer matches and repair them from the golden
    #: image).  Requires the card's fault-protection service to be enabled.
    SCRUB = 0x06
    #: Readback-capture a resident function into a relocatable, compressed
    #: migration image placed in the card's output window (live migration,
    #: source side).
    CAPTURE = 0x07
    #: Configure a function from a migration image staged in the card's input
    #: window instead of the ROM (live migration, destination side).
    RESTORE = 0x08
    #: Run one defragmentation pass: compact resident functions' frame runs
    #: toward the low end of configuration memory.  Requires the card's
    #: defragmenter service to be enabled.
    DEFRAG = 0x09


#: Register offsets in BAR0 (all 32-bit registers).
REG_COMMAND = 0x00      # write triggers command execution
REG_FUNCTION_ID = 0x04  # function the command applies to
REG_INPUT_LENGTH = 0x08
REG_STATUS = 0x0C       # 0 = ok, >=2 = error codes (1, busy, is never reported)
REG_OUTPUT_LENGTH = 0x10
REG_TIME_LOW = 0x14     # busy time of the last command, ns (low 32 bits)
REG_TIME_HIGH = 0x18

STATUS_OK = 0
STATUS_UNKNOWN_FUNCTION = 2
STATUS_CONFIG_FAILED = 3
STATUS_BAD_COMMAND = 4
STATUS_CAPACITY = 5
#: CAPTURE asked for a function whose frames are not on the fabric.
STATUS_NOT_RESIDENT = 6

_COMMAND_STRUCT = struct.Struct(">BxHI")


@dataclass(frozen=True)
class Command:
    """A decoded command block."""

    kind: CommandKind
    function_id: int = 0
    input_length: int = 0

    def pack(self) -> bytes:
        return _COMMAND_STRUCT.pack(int(self.kind), self.function_id, self.input_length)

    @classmethod
    def unpack(cls, data: bytes) -> "Command":
        if len(data) < _COMMAND_STRUCT.size:
            raise CommandError("command block is too short")
        opcode, function_id, input_length = _COMMAND_STRUCT.unpack_from(data)
        try:
            kind = CommandKind(opcode)
        except ValueError:
            raise CommandError(f"unknown opcode 0x{opcode:02x}") from None
        return cls(kind=kind, function_id=function_id, input_length=input_length)

    def __str__(self) -> str:
        return f"{self.kind.name}(fn={self.function_id}, len={self.input_length})"
