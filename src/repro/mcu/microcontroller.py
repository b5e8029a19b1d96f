"""The PCI-based microcontroller.

Orchestrates one on-demand request end to end on the card side: decode the
command, consult the mini OS (hit or miss), evict and reconfigure if needed,
stage the input in local RAM, stream it to the fabric through the data input
module, execute, collect the output and return it — exactly the sequence of
responsibilities Section 2.3 of the paper assigns to the microcontroller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fpga.device import FPGADevice
from repro.fpga.errors import ConfigurationError
from repro.functions.bank import FunctionBank
from repro.mcu.config_module import ConfigurationModule, ReconfigurationReport
from repro.mcu.data_modules import DataInputModule, OutputCollectionModule
from repro.mcu.minios.minios import MiniOs
from repro.memory.ram import LocalRam
from repro.memory.rom import ConfigurationRom
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder


@dataclass
class RequestOutcome:
    """Everything the card knows about one completed request."""

    function: str
    output: bytes
    hit: bool
    evictions: List[str] = field(default_factory=list)
    reconfiguration: Optional[ReconfigurationReport] = None
    decode_time_ns: int = 0
    stage_input_time_ns: int = 0
    reconfig_time_ns: int = 0
    feed_time_ns: int = 0
    execute_time_ns: int = 0
    collect_time_ns: int = 0
    readout_time_ns: int = 0
    total_time_ns: int = 0

    def breakdown(self) -> Dict[str, float]:
        """Per-phase nanoseconds, in pipeline order."""
        return {
            "decode": self.decode_time_ns,
            "stage_input": self.stage_input_time_ns,
            "reconfigure": self.reconfig_time_ns,
            "feed": self.feed_time_ns,
            "execute": self.execute_time_ns,
            "collect": self.collect_time_ns,
            "readout": self.readout_time_ns,
        }


class Microcontroller:
    """Card-side orchestration of on-demand execution."""

    def __init__(
        self,
        bank: FunctionBank,
        rom: ConfigurationRom,
        ram: LocalRam,
        device: FPGADevice,
        minios: MiniOs,
        config_module: ConfigurationModule,
        data_in: DataInputModule,
        data_out: OutputCollectionModule,
        clock: Clock,
        mcu_clock_hz: float = 66e6,
        command_decode_cycles: int = 40,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.bank = bank
        self.rom = rom
        self.ram = ram
        self.device = device
        self.minios = minios
        self.config_module = config_module
        self.data_in = data_in
        self.data_out = data_out
        self.clock = clock
        self.domain = ClockDomain("mcu", mcu_clock_hz)
        self.command_decode_cycles = command_decode_cycles
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.requests_handled = 0
        #: Demand scrubbing ("readback-before-use"): when True and a scrubber
        #: service is registered, every execute first scrubs the function's
        #: region — the hazard window closes completely, every request pays
        #: the region's check time.  The limiting case of periodic scrubbing.
        self.scrub_on_execute = False

    # ----------------------------------------------------------- primitives
    def _charge_cycles(self, cycles: float) -> int:
        elapsed = self.domain.cycles_to_ns(cycles)
        self.clock.advance(elapsed)
        return elapsed

    def ensure_loaded(
        self,
        name: str,
        future_requests: Optional[Sequence[str]] = None,
    ) -> RequestOutcome:
        """Make *name* resident without executing it (the PRELOAD command).

        Returns a partial :class:`RequestOutcome` (no output / data phases).
        """
        started = self.clock.now
        function = self.bank.by_name(name)
        decode_time = self._charge_cycles(self.command_decode_cycles)
        return self._load(
            function, started, decode_time, self.config_module.reconfigure, future_requests
        )

    def _load(
        self,
        function,
        started: int,
        decode_time: int,
        configure,
        future_requests: Optional[Sequence[str]] = None,
    ) -> RequestOutcome:
        """The load tail PRELOAD and RESTORE share: plan, evict, configure.

        ``configure(name, region, executor)`` is the
        :class:`ConfigurationModule` method that writes the region — from the
        ROM (:meth:`~ConfigurationModule.reconfigure`) or from a migration
        blob.
        """
        name = function.name
        decision = self.minios.plan_load(
            name,
            function.frames_required(self.device.geometry),
            self.clock.now,
            future_requests=future_requests,
        )
        outcome = RequestOutcome(
            function=name, output=b"", hit=decision.hit, decode_time_ns=decode_time
        )
        if not decision.hit:
            assert decision.region is not None
            # A wedged configuration port (fault model) makes the load
            # impossible: fail *before* evicting victims, so a degraded card
            # keeps serving its resident functions instead of stripping its
            # own fabric on every miss routed to it.
            if self.device.port.wedged:
                raise ConfigurationError(
                    f"configuration port is wedged; cannot load {name!r}"
                )
            reconfig_started = self.clock.now
            for victim in decision.evictions:
                self.device.unload(victim)
                self.minios.commit_eviction(victim)
                outcome.evictions.append(victim)
            executor = function.executor(self.device.geometry)
            outcome.reconfiguration = configure(name, decision.region, executor)
            self.minios.commit_load(name, decision.region, self.clock.now)
            outcome.reconfig_time_ns = self.clock.now - reconfig_started
        self.minios.touch(name, self.clock.now)
        outcome.total_time_ns = self.clock.now - started
        return outcome

    def resident_functions(self) -> List[str]:
        """The mini OS's configuration-residency view (sorted names).

        Exposed so host-side schedulers (the fleet dispatcher's affinity
        policy) can route requests to a card that already holds the function's
        frames without reaching into card internals.
        """
        return self.minios.resident_functions()

    def evict(self, name: str) -> None:
        """Explicitly evict *name* (the EVICT command)."""
        self._charge_cycles(self.command_decode_cycles)
        if self.minios.is_resident(name):
            self.device.unload(name)
            self.minios.commit_eviction(name)

    # ------------------------------------------------------------ migration
    def capture(self, name: str, codec_name: str, window_bytes: int) -> bytes:
        """CAPTURE command: readback *name* into a compressed migration blob.

        The device charges the frame readback at configuration-port speed and
        the configuration module charges the windowed compression on the MCU
        clock, so a capture costs real card time just like a load.  Raises
        :class:`~repro.fpga.errors.ExecutionError` when *name* is not
        resident.
        """
        self._charge_cycles(self.command_decode_cycles)
        bitstream = self.device.capture_function(name)
        return self.config_module.compress_for_transfer(bitstream, codec_name, window_bytes)

    def restore(self, name: str, blob: bytes) -> RequestOutcome:
        """RESTORE command: make *name* resident from a migration blob.

        The blob replaces the ROM as the image source; everything else — the
        mini OS placement plan, victim eviction, the windowed decompression
        and the configuration-port writes — is the standard on-demand load
        path, so a restore pays the same real card time a miss would (minus
        the ROM fetch the PCI transfer already replaced).
        """
        started = self.clock.now
        function = self.bank.by_name(name)
        decode_time = self._charge_cycles(self.command_decode_cycles)
        # Validate the blob before any planning: a corrupted or mismatched
        # transfer must never cost the destination its resident functions
        # (the eviction loop is irreversible).
        self.config_module.validate_transfer_blob(name, blob)

        def configure(name, region, executor):
            return self.config_module.restore_from_blob(name, blob, region, executor)

        return self._load(function, started, decode_time, configure)

    def defrag(self, max_moves: Optional[int] = None):
        """DEFRAG command: one compaction pass by the mini OS's defragmenter.

        Returns its ``DefragPassResult``, or ``None`` when no defragmenter
        service is installed.
        """
        self._charge_cycles(self.command_decode_cycles)
        defragmenter = self.minios.service("defrag")
        if defragmenter is None:
            return None
        return defragmenter.defrag_pass(max_moves=max_moves)

    def scrub(self, max_frames: Optional[int] = None):
        """Run one readback-scrub pass (the SCRUB command).

        Delegates to the mini OS's registered ``"scrubber"`` service (see
        :class:`repro.faults.scrubber.Scrubber`); returns its
        ``ScrubPassResult``, or ``None`` when no scrubber is installed.
        """
        self._charge_cycles(self.command_decode_cycles)
        scrubber = self.minios.service("scrubber")
        if scrubber is None:
            return None
        return scrubber.scrub_pass(max_frames=max_frames)

    def reset(self) -> None:
        """RESET command: clear the fabric and the mini OS state."""
        self._charge_cycles(self.command_decode_cycles)
        self.device.unload_all()
        self.minios.reset()

    # --------------------------------------------------------------- execute
    def handle_execute(
        self,
        name: str,
        data: bytes,
        future_requests: Optional[Sequence[str]] = None,
    ) -> RequestOutcome:
        """Run *name* on *data*, loading it on demand first if necessary."""
        started = self.clock.now
        outcome = self.ensure_loaded(name, future_requests=future_requests)

        if self.scrub_on_execute:
            scrubber = self.minios.service("scrubber")
            if scrubber is not None:
                # Readback-before-use: repair the function's frames before
                # they execute.  Charged outside breakdown() (whose keys are
                # part of committed report formats); total_time_ns covers it.
                scrubber.scrub_region(self.minios.table.entry(name).region)

        # Stage the input in local RAM (the paper: inputs from the host are
        # stored in the local RAM before being passed to the data input module).
        stage_started = self.clock.now
        input_label = f"in:{self.requests_handled}"
        output_label = f"out:{self.requests_handled}"
        input_allocation = self.ram.allocate(input_label, max(1, len(data)))
        if data:
            self.ram.write(input_allocation, data)
        outcome.stage_input_time_ns = self.clock.now - stage_started

        try:
            feed_started = self.clock.now
            payload = self.data_in.feed(input_allocation, len(data))
            outcome.feed_time_ns = self.clock.now - feed_started

            execute_started = self.clock.now
            output, _ = self.device.execute(name, payload)
            outcome.execute_time_ns = self.clock.now - execute_started

            collect_started = self.clock.now
            output_allocation = self.ram.allocate(output_label, max(1, len(output)))
            self.data_out.collect(output_allocation, output)
            outcome.collect_time_ns = self.clock.now - collect_started

            readout_started = self.clock.now
            result = self.ram.read(output_allocation, len(output)) if output else b""
            outcome.readout_time_ns = self.clock.now - readout_started
        finally:
            self.ram.free(input_label)
            if output_label in self.ram.allocations:
                self.ram.free(output_label)

        outcome.output = result
        outcome.total_time_ns = self.clock.now - started
        self.requests_handled += 1
        self.trace.record(
            "mcu",
            "execute",
            started,
            self.clock.now,
            function=name,
            hit=outcome.hit,
        )
        return outcome
