"""Configuration port: the byte-wide interface the controller programs through.

The port models a SelectMAP-style interface: a configuration transfer pushes
every frame payload through it, each write costing a fixed setup plus the
payload size divided by the port width at the configuration clock frequency,
and closes with a CRC check over the payloads before the device commits the
new configuration.  A transfer is one call, and one advance of the clock.
"""

from __future__ import annotations

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
        #: Fault model: a wedged port refuses every transfer until unwedged.
        self.wedged = False
        #: Fault model: pending transient stall, consumed (as configuration
        #: clock time) by the next transfer.
        self._pending_stall_ns = 0

    # --------------------------------------------------------------- timing
    def write_time_ns(self, payload_bytes: int) -> int:
        """Time to push *payload_bytes* through the port, including setup."""
        cycles = FRAME_SETUP_CYCLES + -(-payload_bytes // CONFIG_PORT_WIDTH_BYTES)
        return self.domain.cycles_to_ns(cycles)

    def transfer_time_ns(self, payloads: Sequence[bytes]) -> int:
        """Port time of one transfer of *payloads*: every frame's write plus
        the closing CRC check (at least one frame's worth)."""
        writes = sum(self.write_time_ns(len(payload)) for payload in payloads)
        return writes + self.domain.cycles_to_ns(
            CRC_CHECK_CYCLES_PER_FRAME * max(1, len(payloads))
        )

    # ---------------------------------------------------------- fault model
    def wedge(self) -> None:
        """Hard-fail the port: every transfer raises until :meth:`unwedge`.

        Models a wedged reconfiguration interface (clock glitch, upset in the
        port's own state machine).  Functions already on the fabric keep
        executing — only *re*configuration is lost.
        """
        self.wedged = True

    def unwedge(self) -> None:
        self.wedged = False

    def stall_for(self, duration_ns: int) -> None:
        """Queue a transient stall consumed by the next transfer."""
        if duration_ns < 0:
            raise ValueError("a stall cannot run backwards")
        self._pending_stall_ns += duration_ns

    # ------------------------------------------------------------- transfer
    def configure(
        self,
        owner: str,
        addresses: Iterable[FrameAddress],
        payloads: Sequence[bytes],
        expected_crc: int,
    ) -> int:
        """Write *payloads* into *addresses* on behalf of *owner*; returns Δt.

        The clock advances once, by any pending stall plus
        :meth:`transfer_time_ns`.  A wedged port raises
        :class:`ConfigurationError` before anything is written or charged.
        When a write collides or the payloads' CRC differs from
        *expected_crc*, the frames written are cleared and
        :class:`ConfigurationError` is raised: a corrupted configuration is
        never left live on the fabric.
        """
        if self.wedged:
            raise ConfigurationError(
                f"configuration port is wedged; cannot configure {owner!r}"
            )
        elapsed = self._pending_stall_ns + self.transfer_time_ns(payloads)
        self._pending_stall_ns = 0
        self.stats.frames_written += len(payloads)
        self.stats.bytes_written += sum(map(len, payloads))
        self.stats.busy_time_ns += elapsed
        self.clock.advance(elapsed)
        written = []
        computed = 0
        try:
            for address, payload in zip(addresses, payloads):
                self.memory.write_frame(address, payload, owner=owner)
                written.append(address)
                computed = crc32(payload, computed)
            if computed != expected_crc:
                raise ConfigurationError(
                    f"bit-stream CRC mismatch for {owner!r}: "
                    f"expected 0x{expected_crc:08x}, computed 0x{computed:08x}"
                )
        except ConfigurationError:
            for address in written:
                self.memory.clear_frame(address)
            raise
        return elapsed
