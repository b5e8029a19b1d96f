"""Configuration port: the byte-wide interface the controller programs through.

The port models a SelectMAP-style interface: a configuration transfer pushes
every frame payload through it, each write costing a fixed setup plus the
payload size divided by the port width at the configuration clock frequency,
and closes with a CRC check over the payloads before the device commits the
new configuration.  A transfer is one call, and one advance of the clock.

The port works per transfer, not per frame.  Each frame's write time is
rounded on its own, and equal lengths round equally, so a transfer's write
time is one product per distinct payload length; every frame of a geometry
has the same length.  The CRC of the payloads chained frame by frame is the
CRC of their concatenation, so a transfer takes one CRC.  The memory writes
the region in one loop (:meth:`ConfigurationMemory.write_region`), storing
each frame's check word as given.  A configuration from a bit-stream brings
its port time and check words, worked out once per decoded image
(:meth:`ConfigurationPort.transfer`); a relocation's readback payloads get
theirs worked out per transfer (:meth:`ConfigurationPort.configure`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.bitstream.crc import crc32
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.errors import ConfigurationError
from repro.fpga.geometry import FrameAddress
from repro.sim.clock import Clock, ClockDomain

#: Fixed per-frame overhead in configuration cycles (address register load,
#: frame flush).
FRAME_SETUP_CYCLES = 12

#: Configuration cycles the closing CRC check spends per frame written.
CRC_CHECK_CYCLES_PER_FRAME = 4

#: Configuration clock frequency (a 50 MHz SelectMAP interface); the
#: readback scrubber runs on it too.
CONFIG_CLOCK_HZ = 50e6

#: Bytes the port accepts per configuration clock cycle (byte-wide).
CONFIG_PORT_WIDTH_BYTES = 1


@dataclass
class PortStatistics:
    """Counters the configuration port accumulates over its lifetime."""

    frames_written: int = 0
    bytes_written: int = 0
    busy_time_ns: int = 0


class ConfigurationPort:
    """Frame-write interface with timing and CRC checking.

    Parameters
    ----------
    memory:
        The configuration memory behind the port.
    clock:
        Shared simulation clock; every transfer advances it.
    """

    def __init__(self, memory: ConfigurationMemory, clock: Clock) -> None:
        self.memory = memory
        self.clock = clock
        self.domain = ClockDomain("config-port", CONFIG_CLOCK_HZ)
        self.stats = PortStatistics()

    # --------------------------------------------------------------- timing
    def write_time_ns(self, payload_bytes: int) -> int:
        """Time to push *payload_bytes* through the port, including setup."""
        cycles = FRAME_SETUP_CYCLES + -(-payload_bytes // CONFIG_PORT_WIDTH_BYTES)
        return self.domain.cycles_to_ns(cycles)

    def frames_time_ns(self, payloads: Sequence[bytes]) -> int:
        """Σ :meth:`write_time_ns` over *payloads*: one product per distinct
        payload length."""
        lengths = [len(payload) for payload in payloads]
        return sum(self.write_time_ns(length) * lengths.count(length) for length in set(lengths))

    def transfer_time_ns(self, payloads: Sequence[bytes]) -> int:
        """Port time of one transfer of *payloads*: every frame's write plus
        the closing CRC check (at least one frame's worth)."""
        return self.frames_time_ns(payloads) + self.domain.cycles_to_ns(
            CRC_CHECK_CYCLES_PER_FRAME * max(1, len(payloads))
        )

    # ------------------------------------------------------------- transfer
    def configure(self, owner: str, addresses: Iterable[FrameAddress], payloads: Sequence[bytes], expected_crc: int) -> int:
        """Write *payloads* into *addresses* on behalf of *owner*; returns Δt.

        :meth:`transfer` with each frame's check word and the port time
        worked out from *payloads* (any lengths): the form for payloads read
        back from the fabric, as a relocation moves them.
        """
        check_words = [zlib.crc32(payload) for payload in payloads]
        return self.transfer(owner, addresses, payloads, expected_crc, check_words, self.transfer_time_ns(payloads))

    def transfer(
        self, owner: str, addresses: Iterable[FrameAddress], payloads: Sequence[bytes], expected_crc: int,
        check_words: Sequence[int], elapsed: int,
    ) -> int:
        """One CRC-checked transfer of *payloads* into *addresses* on behalf
        of *owner*, each frame stored with its check word; returns *elapsed*,
        the transfer's :meth:`transfer_time_ns`.

        The caller works out the check words and the port time, once per
        image for a configuration.  The clock advances once, by *elapsed*.
        When a write collides or the payloads' CRC differs from
        *expected_crc*, the frames written are cleared and
        :class:`ConfigurationError` is raised: a corrupted configuration is
        never left live on the fabric.
        """
        self.stats.frames_written += len(payloads)
        self.stats.bytes_written += sum(map(len, payloads))
        self.stats.busy_time_ns += elapsed
        self.clock.advance(elapsed)
        written = self.memory.write_region(addresses, payloads, check_words, owner=owner)
        # The CRC covers the payloads written (the write stops at the
        # shorter of addresses and payloads).
        computed = crc32(b"".join(payloads[: len(written)]))
        if computed != expected_crc:
            self.memory.clear_region(written)
            raise ConfigurationError(
                f"bit-stream CRC mismatch for {owner!r}: "
                f"expected 0x{expected_crc:08x}, computed 0x{computed:08x}"
            )
        return elapsed
