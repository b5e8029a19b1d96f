"""The partially reconfigurable FPGA device.

:class:`FPGADevice` ties together the configuration memory, the configuration
port and the execution of loaded functions.  Its contract mirrors the paper's
description of partial reconfiguration:

* configuring a region only touches that region's frames — every other loaded
  function stays bound and executable throughout;
* a function becomes executable only after a complete, CRC-valid bit-stream
  for it has been written and the controller has bound an executor to the
  region;
* erasing or overwriting any frame of a region invalidates that region's
  binding (the function must be reloaded before it can run again).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bitstream.format import Bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.config_port import ConfigurationPort
from repro.fpga.errors import ConfigurationError, ExecutionError, FrameCollisionError
from repro.fpga.executor import FunctionExecutor
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder

#: Fabric clock frequency: one executor cycle is one period of it.
FABRIC_CLOCK_HZ = 100e6


@dataclass
class LoadedFunction:
    """Book-keeping for one function currently realised on the fabric."""

    name: str
    function_id: int
    region: FrameRegion
    executor: FunctionExecutor
    executions: int = 0
    #: I/O metadata copied from the configuring bit-stream's header, so a
    #: readback capture can rebuild a relocatable bit-stream without
    #: consulting the function bank.
    input_bytes: int = 0
    output_bytes: int = 0
    lut_count: int = 0


class FPGADevice:
    """Behavioural model of the partially reconfigurable FPGA chip."""

    def __init__(
        self,
        geometry: FabricGeometry,
        clock: Optional[Clock] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.geometry = geometry
        self.clock = clock if clock is not None else Clock()
        self.fabric_domain = ClockDomain("fabric", FABRIC_CLOCK_HZ)
        self.memory = ConfigurationMemory(geometry)
        self.port = ConfigurationPort(self.memory, self.clock)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._loaded: Dict[str, LoadedFunction] = {}
        self.total_executions = 0
        #: Optional fault-tolerance hooks (see :mod:`repro.faults`): a golden
        #: image store capturing each region's clean readback at configure
        #: time, and a hazard detector consulted on every execute.  Both
        #: default to ``None`` so fault-free simulations pay nothing.
        self.golden = None
        self.hazard_detector = None

    # ------------------------------------------------------------ inventory
    @property
    def loaded_functions(self) -> Dict[str, LoadedFunction]:
        """Functions currently bound and executable, keyed by name."""
        return dict(self._loaded)

    def is_loaded(self, name: str) -> bool:
        return name in self._loaded

    def region_of(self, name: str) -> FrameRegion:
        try:
            return self._loaded[name].region
        except KeyError:
            raise ExecutionError(f"function {name!r} is not loaded on the fabric") from None

    # -------------------------------------------------------- configuration
    def _bind(
        self, bitstream: Bitstream, region: FrameRegion, executor: FunctionExecutor
    ) -> None:
        """Bind *executor* to the freshly written *region* and, on a protected
        device, capture the region's clean readback as golden."""
        header = bitstream.header
        self._loaded[header.function_name] = LoadedFunction(
            name=header.function_name,
            function_id=header.function_id,
            region=region,
            executor=executor,
            input_bytes=header.input_bytes,
            output_bytes=header.output_bytes,
            lut_count=header.lut_count,
        )
        if self.golden is not None:
            self.golden.capture(region, self.memory.read_region(region))

    def configure_partial(
        self,
        bitstream: Bitstream,
        region: FrameRegion,
        executor: FunctionExecutor,
        transfer_ns: int,
    ) -> int:
        """Apply a partial bit-stream to *region* and bind *executor* to it.

        *transfer_ns* is the bit-stream's port time,
        ``port.transfer_time_ns(bitstream.frames)``, which a caller that loads
        one image many times works out once.  Returns the time spent on the
        configuration port.  Raises
        :class:`FrameCollisionError` if the region overlaps frames owned by a
        *different* loaded function, and :class:`ConfigurationError` if the
        region size does not match the bit-stream.
        """
        if len(region) != bitstream.header.frame_count:
            raise ConfigurationError(
                f"bit-stream for {bitstream.header.function_name!r} covers "
                f"{bitstream.header.frame_count} frames but the region has {len(region)}"
            )
        name = bitstream.header.function_name
        started = self.clock.now
        # Loading over frames owned by *other* live functions is refused; the
        # controller must evict them first.  Claiming up front validates the
        # whole region's ownership once, before anything on the fabric is
        # disturbed.
        self.memory.claim(region, name)
        # Reloading an already-resident function releases its previous region
        # first so stale frames never stay claimed (frames shared with the new
        # region are re-owned as the transfer writes them).
        if name in self._loaded and set(self._loaded[name].region) != set(region):
            self.unload(name)
        try:
            elapsed = self.port.transfer(
                name, region, bitstream.frames, bitstream.payload_crc, bitstream.check_words, transfer_ns
            )
        except ConfigurationError:
            self.memory.release(region, owner=name)
            raise
        self._bind(bitstream, region, executor)
        self.trace.record("fpga", "configure_partial", started, self.clock.now, function=name, frames=len(region))
        return elapsed

    # --------------------------------------------------------------- unload
    def unload(self, name: str) -> FrameRegion:
        """Unbind *name* and release (and erase) its frames.

        Returns the region that became free.
        """
        try:
            loaded = self._loaded.pop(name)
        except KeyError:
            raise ExecutionError(f"cannot unload {name!r}: it is not loaded") from None
        self.memory.clear_region(loaded.region)
        if self.golden is not None:
            self.golden.release(loaded.region)
        return loaded.region

    def unload_all(self) -> None:
        for name in list(self._loaded):
            self.unload(name)

    # -------------------------------------------------------------- execute
    def execute(self, name: str, input_bytes: bytes) -> Tuple[bytes, int]:
        """Run the loaded function *name* on *input_bytes*.

        Returns (output bytes, fabric time in ns) and advances the clock by
        the fabric time.
        """
        try:
            loaded = self._loaded[name]
        except KeyError:
            raise ExecutionError(f"function {name!r} is not loaded on the fabric") from None
        started = self.clock.now
        detector = self.hazard_detector
        if detector is not None:
            # The hazard window: a function whose frames were corrupted after
            # configuration is about to execute anyway — the detector counts
            # it (the simulation's omniscient view of silent corruption).
            detector.observe_execution(loaded.region)
        output, cycles = loaded.executor.run(input_bytes)
        elapsed = self.fabric_domain.cycles_to_ns(cycles)
        self.clock.advance(elapsed)
        loaded.executions += 1
        self.total_executions += 1
        self.trace.record("fpga", "execute", started, self.clock.now, function=name, cycles=cycles)
        return output, elapsed

    # ----------------------------------------------------------- relocation
    def _timed_readback(self, region: FrameRegion) -> List[bytes]:
        """Read *region*'s frames back, each charged at the configuration
        port's transfer rate (SelectMAP-style readback runs at write speed)."""
        payloads = self.memory.read_region(region)
        self.clock.advance(self.port.frames_time_ns(payloads))
        return payloads

    def capture_function(self, name: str) -> Bitstream:
        """Readback-capture *name* into a relocatable bit-stream.

        The capture is *timed*: each frame's readback is charged at the
        configuration port's transfer rate (SelectMAP-style readback runs at
        write speed).  The resulting bit-stream is slot-indexed — no absolute
        addresses — so it can be restored onto any region of a fabric whose
        frames are the same size; its payload CRC protects the transfer end
        to end.
        """
        try:
            loaded = self._loaded[name]
        except KeyError:
            raise ExecutionError(f"cannot capture {name!r}: it is not loaded") from None
        started = self.clock.now
        payloads = self._timed_readback(loaded.region)
        from repro.bitstream.format import build_bitstream

        bitstream = build_bitstream(
            function_id=loaded.function_id,
            function_name=name,
            frame_payloads=payloads,
            input_bytes=loaded.input_bytes,
            output_bytes=loaded.output_bytes,
            lut_count=loaded.lut_count,
        )
        self.trace.record(
            "fpga", "capture", started, self.clock.now, function=name, frames=len(payloads)
        )
        return bitstream

    def relocate_function(self, name: str, new_region: FrameRegion) -> int:
        """Move *name*'s frames to *new_region* on this fabric; returns Δt.

        The relocation is capture-and-restore in place: the old frames are
        read back (charged at port speed), pushed through one configuration
        transfer into the new region (real write time, CRC-verified), and the
        frames left behind are erased.  Ownership bookkeeping, the golden
        image store and each frame's CRC check word all move in lockstep; the
        executor binding survives because only the *placement* changed, not
        the configuration payloads.  Old and new regions may overlap.
        """
        try:
            loaded = self._loaded[name]
        except KeyError:
            raise ExecutionError(f"cannot relocate {name!r}: it is not loaded") from None
        old_region = loaded.region
        if len(new_region) != len(old_region):
            raise ConfigurationError(
                f"relocation of {name!r} must keep its {len(old_region)} frames, "
                f"got a {len(new_region)}-frame target"
            )
        if list(new_region) == list(old_region):
            return 0
        new_set = set(new_region)
        for address in new_region:
            owner = self.memory.owner_of(address)
            if owner is not None and owner != name:
                raise FrameCollisionError([address], owner)
        started = self.clock.now
        payloads = self._timed_readback(old_region)
        from repro.bitstream.crc import crc32

        expected = crc32(b"".join(payloads))
        try:
            self.port.configure(name, new_region, payloads, expected)
        except ConfigurationError:
            # Unreachable in practice (the CRC is computed from the very
            # payloads just written and collisions were checked up front), but
            # a relocation must never leave the function half-moved: restore
            # the old region's contents and ownership before re-raising.
            self.memory.write_region(old_region, payloads, [crc32(p) for p in payloads], owner=name)
            raise
        stale = [address for address in old_region if address not in new_set]
        self.memory.clear_region(stale)
        loaded.region = new_region
        if self.golden is not None:
            if stale:
                self.golden.release(stale)
            self.golden.capture(new_region, payloads)
        elapsed = self.clock.now - started
        self.trace.record(
            "fpga",
            "relocate",
            started,
            self.clock.now,
            function=name,
            frames=len(new_region),
        )
        return elapsed

    # ------------------------------------------------------------- readback
    def readback(self, name: str) -> List[bytes]:
        """Configuration readback of the frames owned by *name*."""
        return self.memory.read_region(self.region_of(name))

    def verify_readback(self, name: str, bitstream: Bitstream) -> bool:
        """Compare the live configuration of *name* against its bit-stream."""
        return self.readback(name) == list(bitstream.frames)
