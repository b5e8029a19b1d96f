"""The host ↔ microcontroller command protocol.

The host operates the card "by issuing instructions to the microcontroller
through the PCI": it writes a function id and an input length into the
card's registers, then an opcode into the COMMAND register, and reads the
STATUS register back.  The card hands the command to the microcontroller.
"""

from __future__ import annotations

import enum


class CommandKind(enum.IntEnum):
    """Opcodes understood by the microcontroller."""

    #: Execute a function from the bank on data already staged in the window.
    EXECUTE = 0x01
    #: Pre-load a function onto the FPGA without executing it.
    PRELOAD = 0x02
    #: Evict a function from the FPGA, freeing its frames.
    EVICT = 0x03
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

STATUS_OK = 0
STATUS_UNKNOWN_FUNCTION = 2
STATUS_CONFIG_FAILED = 3
STATUS_BAD_COMMAND = 4
STATUS_CAPACITY = 5
#: CAPTURE asked for a function whose frames are not on the fabric.
STATUS_NOT_RESIDENT = 6
