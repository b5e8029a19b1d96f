"""The PCI-based microcontroller.

Orchestrates one on-demand request end to end on the card side: decode the
command, consult the mini OS (hit or miss), evict and reconfigure if needed,
stage the input in local RAM, stream it to the fabric over the interface bus,
execute, collect the output and return it — exactly the sequence of
responsibilities Section 2.3 of the paper assigns to the microcontroller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.fpga.device import FPGADevice
from repro.functions.bank import FunctionBank
from repro.mcu.minios.minios import MiniOs
from repro.memory.ram import LocalRam
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mcu.config_module import ConfigurationModule, ReconfigurationReport

#: The microcontroller's clock; the configuration module's decompression runs
#: on it too.
MCU_CLOCK_HZ = 66e6
#: Cycles to decode one command from the host.
COMMAND_DECODE_CYCLES = 40

#: The interface bus between the local RAM and the fabric, on the MCU clock:
#: "each data transfer is a multiple of the width of the interface bus", and
#: every transfer pays its setup cycles before the first beat.
INTERFACE_BUS_WIDTH_BYTES = 4
INTERFACE_SETUP_CYCLES = 4


@dataclass
class ExecutionResult:
    """What the card did for one command and how long each phase took.

    An EXECUTE fills every phase; a PRELOAD or RESTORE only the decode and
    the reconfiguration, with an empty ``output``.  ``latency_ns`` is the
    card time of the whole command.
    """

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
    latency_ns: int = 0

    @property
    def breakdown(self) -> Dict[str, int]:
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
        ram: LocalRam,
        device: FPGADevice,
        minios: MiniOs,
        config_module: ConfigurationModule,
        clock: Clock,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.bank = bank
        self.ram = ram
        self.device = device
        self.minios = minios
        self.config_module = config_module
        self.clock = clock
        self.domain = ClockDomain("mcu", MCU_CLOCK_HZ)
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

    def interface_ns(self, length: int) -> int:
        """One transfer of *length* bytes over the interface bus: setup plus
        whole beats, so the payload is exact and the time is padded."""
        return self.domain.cycles_to_ns(INTERFACE_SETUP_CYCLES + -(-length // INTERFACE_BUS_WIDTH_BYTES))

    def ensure_loaded(self, name: str) -> ExecutionResult:
        """Make *name* resident without executing it (the PRELOAD command).

        Returns a partial :class:`ExecutionResult` (no output / data phases).
        """
        started = self.clock.now
        function = self.bank.by_name(name)
        decode_time = self._charge_cycles(COMMAND_DECODE_CYCLES)
        return self._load(function, started, decode_time, self.config_module.reconfigure)

    def _load(self, function, started: int, decode_time: int, configure) -> ExecutionResult:
        """The load tail PRELOAD and RESTORE share: plan, evict, configure.

        ``configure(name, region, executor)`` is the
        :class:`ConfigurationModule` method that writes the region — from the
        ROM (:meth:`~ConfigurationModule.reconfigure`) or from a migration
        blob.

        The victims are evicted before the write, so a transfer the port
        refuses leaves them evicted: their frames were erased before the
        write began.  The mini OS and the device still agree afterwards.
        """
        name = function.name
        decision = self.minios.plan_load(name, function.frames_required(self.device.geometry))
        outcome = ExecutionResult(
            function=name, output=b"", hit=decision.hit, decode_time_ns=decode_time
        )
        if not decision.hit:
            assert decision.region is not None
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
        outcome.latency_ns = self.clock.now - started
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
        self._charge_cycles(COMMAND_DECODE_CYCLES)
        if self.minios.is_resident(name):
            self.device.unload(name)
            self.minios.commit_eviction(name)

    # ------------------------------------------------------------ migration
    def capture(self, name: str, codec_name: str) -> bytes:
        """CAPTURE command: readback *name* into a compressed migration blob.

        The device charges the frame readback at configuration-port speed and
        the configuration module charges the windowed compression on the MCU
        clock, so a capture costs real card time just like a load.  Raises
        :class:`~repro.fpga.errors.ExecutionError` when *name* is not
        resident.
        """
        self._charge_cycles(COMMAND_DECODE_CYCLES)
        bitstream = self.device.capture_function(name)
        return self.config_module.compress_for_transfer(bitstream, codec_name)

    def restore(self, name: str, blob: bytes) -> ExecutionResult:
        """RESTORE command: make *name* resident from a migration blob.

        The blob replaces the ROM as the image source; everything else — the
        mini OS placement plan, victim eviction, the windowed decompression
        and the configuration-port writes — is the standard on-demand load
        path, so a restore pays the same real card time a miss would (minus
        the ROM fetch the PCI transfer already replaced).
        """
        started = self.clock.now
        function = self.bank.by_name(name)
        decode_time = self._charge_cycles(COMMAND_DECODE_CYCLES)
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
        self._charge_cycles(COMMAND_DECODE_CYCLES)
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
        self._charge_cycles(COMMAND_DECODE_CYCLES)
        scrubber = self.minios.service("scrubber")
        if scrubber is None:
            return None
        return scrubber.scrub_pass(max_frames=max_frames)

    def reset(self) -> None:
        """RESET command: clear the fabric and the mini OS state."""
        self._charge_cycles(COMMAND_DECODE_CYCLES)
        self.device.unload_all()
        self.minios.reset()

    # --------------------------------------------------------------- execute
    def handle_execute(self, name: str, data: bytes) -> ExecutionResult:
        """Run *name* on *data*, loading it on demand first if necessary.

        The card serves one command at a time, so the local RAM holds just
        this input and, beside it, this output, and reading a buffer back
        returns what was written.  Past the load the clock advances once for
        staging and feeding the input and once for collecting and reading out
        the output; the ``ram``, ``data-in`` and ``data-out`` events are
        recorded at the instants those running sums reach.  Raises
        :class:`~repro.memory.errors.RamCapacityError` when a buffer does not
        fit.
        """
        clock = self.clock
        started = clock.now
        outcome = self.ensure_loaded(name)

        if self.scrub_on_execute:
            scrubber = self.minios.service("scrubber")
            if scrubber is not None:
                # Readback-before-use: repair the function's frames before
                # they execute.  Charged outside breakdown (whose keys are
                # part of committed report formats); latency_ns covers it.
                scrubber.scrub_region(self.minios.table.entry(name).region)

        # Stage the input in local RAM (the paper: inputs from the host are
        # stored in the local RAM before being passed to the data input
        # module), read it back and stream it to the fabric.
        record = self.trace.record
        input_label = f"in:{self.requests_handled}"
        length = len(data)
        access_ns = self.ram.access_ns(length)
        staging = clock.now
        staged = staging + access_ns
        if data:
            record("ram", "write", staging, staged, label=input_label, length=length)
        record("ram", "read", staged, staged + access_ns, label=input_label, length=length)
        fed = staged + access_ns + self.interface_ns(length)
        record("data-in", "feed", staged, fed, bytes=length)
        clock.advance(fed - staging)
        outcome.stage_input_time_ns = access_ns
        outcome.feed_time_ns = fed - staged

        output, outcome.execute_time_ns = self.device.execute(name, data)

        # Collect the output into RAM beside the input and read it out.
        output_label = f"out:{self.requests_handled}"
        length = len(output)
        access_ns = self.ram.access_ns(length, beside=max(1, len(data)))
        collecting = fed + outcome.execute_time_ns
        writing = collecting + self.interface_ns(length)
        collected = writing + access_ns
        done = collected + access_ns
        record("ram", "write", writing, collected, label=output_label, length=length)
        record("data-out", "collect", collecting, collected, bytes=length)
        if output:
            record("ram", "read", collected, done, label=output_label, length=length)
        clock.advance(done - collecting)
        outcome.collect_time_ns = collected - collecting
        outcome.readout_time_ns = access_ns

        outcome.output = output
        outcome.latency_ns = done - started
        self.requests_handled += 1
        record("mcu", "execute", started, done, function=name, hit=outcome.hit)
        return outcome
