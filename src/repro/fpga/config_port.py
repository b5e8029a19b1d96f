"""Configuration port: the byte-wide interface the controller programs through.

The port models a SelectMAP-style interface: the configuration module streams
frame payloads into it, each write costing time proportional to the payload
size divided by the port width at the configuration clock frequency.  The port
verifies the per-bit-stream CRC before the device commits the new
configuration, and keeps statistics used by the reconfiguration-latency
experiments (E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bitstream.crc import IncrementalCrc32
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.errors import ConfigurationError
from repro.fpga.geometry import FrameAddress
from repro.sim.clock import Clock, ClockDomain

#: Fixed per-frame overhead in configuration cycles (address register load,
#: frame flush).
FRAME_SETUP_CYCLES = 12


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
        Shared simulation clock; every write advances it.
    config_clock_hz:
        Configuration clock frequency (e.g. 50 MHz SelectMAP).
    port_width_bytes:
        Bytes accepted per configuration clock cycle (1 for a byte-wide port).
    """

    def __init__(
        self,
        memory: ConfigurationMemory,
        clock: Clock,
        config_clock_hz: float = 50e6,
        port_width_bytes: int = 1,
    ) -> None:
        if port_width_bytes <= 0:
            raise ValueError("port width must be at least one byte")
        self.memory = memory
        self.clock = clock
        self.domain = ClockDomain("config-port", config_clock_hz)
        self.port_width_bytes = port_width_bytes
        self.stats = PortStatistics()
        self._session_owner: Optional[str] = None
        self._session_crc: Optional[IncrementalCrc32] = None
        self._session_frames: List[FrameAddress] = []
        #: Fault model: a wedged port refuses new sessions until unwedged.
        self.wedged = False
        #: Fault model: pending transient stall, consumed (as configuration
        #: clock time) by the next session that opens.
        self._pending_stall_ns = 0

    # --------------------------------------------------------------- timing
    def write_time_ns(self, payload_bytes: int) -> int:
        """Time to push *payload_bytes* through the port, including setup."""
        cycles = FRAME_SETUP_CYCLES + -(-payload_bytes // self.port_width_bytes)
        return self.domain.cycles_to_ns(cycles)

    # ---------------------------------------------------------- fault model
    def wedge(self) -> None:
        """Hard-fail the port: every new session raises until :meth:`unwedge`.

        Models a wedged reconfiguration interface (clock glitch, upset in the
        port's own state machine).  Functions already on the fabric keep
        executing — only *re*configuration is lost.
        """
        self.wedged = True

    def unwedge(self) -> None:
        self.wedged = False

    def stall_for(self, duration_ns: int) -> None:
        """Queue a transient stall consumed by the next configuration session."""
        if duration_ns < 0:
            raise ValueError("a stall cannot run backwards")
        self._pending_stall_ns += duration_ns

    # ------------------------------------------------------------- sessions
    @property
    def in_session(self) -> bool:
        return self._session_crc is not None

    def begin_session(self, owner: str) -> None:
        """Open a configuration session on behalf of function *owner*."""
        if self.in_session:
            raise ConfigurationError(
                f"configuration session for {self._session_owner!r} is still open"
            )
        if self.wedged:
            raise ConfigurationError(
                f"configuration port is wedged; cannot open a session for {owner!r}"
            )
        if self._pending_stall_ns:
            stall = self._pending_stall_ns
            self._pending_stall_ns = 0
            self.stats.busy_time_ns += stall
            self.clock.advance(stall)
        self._session_owner = owner
        self._session_crc = IncrementalCrc32()
        self._session_frames = []

    def write_frame(self, address: FrameAddress, payload: bytes) -> int:
        """Write one frame within the open session; returns the time spent."""
        if not self.in_session:
            raise ConfigurationError("write_frame outside a configuration session")
        assert self._session_owner is not None and self._session_crc is not None
        elapsed = self.write_time_ns(len(payload))
        self.memory.write_frame(address, payload, owner=self._session_owner)
        self._session_crc.update(payload)
        self._session_frames.append(address)
        self.stats.frames_written += 1
        self.stats.bytes_written += len(payload)
        self.stats.busy_time_ns += elapsed
        self.clock.advance(elapsed)
        return elapsed

    def end_session(self, expected_crc: Optional[int] = None) -> Tuple[List[FrameAddress], int]:
        """Close the session, optionally verifying the payload CRC.

        On CRC mismatch the freshly written frames are rolled back (cleared
        and released) and :class:`ConfigurationError` is raised — a corrupted
        configuration must never be left live on the fabric.

        Returns the frames written and the CRC-check time.
        """
        if not self.in_session:
            raise ConfigurationError("end_session without a configuration session")
        assert self._session_crc is not None
        crc_cycles = 4 * max(1, len(self._session_frames))
        elapsed = self.domain.cycles_to_ns(crc_cycles)
        self.stats.busy_time_ns += elapsed
        self.clock.advance(elapsed)
        frames = list(self._session_frames)
        computed = self._session_crc.value
        owner = self._session_owner
        self._session_owner = None
        self._session_crc = None
        self._session_frames = []
        if expected_crc is not None and computed != expected_crc:
            for address in frames:
                self.memory.clear_frame(address)
            raise ConfigurationError(
                f"bit-stream CRC mismatch for {owner!r}: "
                f"expected 0x{expected_crc:08x}, computed 0x{computed:08x}"
            )
        return frames, elapsed

    def abort_session(self) -> None:
        """Abandon the session, rolling back the frames written so far."""
        if not self.in_session:
            return
        for address in self._session_frames:
            self.memory.clear_frame(address)
        self._session_owner = None
        self._session_crc = None
        self._session_frames = []
