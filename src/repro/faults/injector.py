"""Deterministic fault injection, for one card or a whole fleet.

The injector has two faces:

* **Manual** — :meth:`FaultInjector.upset_memory` (and friends) inject one
  fault right now, used by drills and tests.
* **Scheduled** — :meth:`FaultInjector.processes` returns named kernel
  generator factories (upsets, port faults, card kills) a
  :class:`~repro.cluster.fleet.Fleet` registers as services; events then
  interleave deterministically with the fleet's own schedule.

Every random draw comes from :class:`~repro.sim.rand.SeededRandom` forks of
``spec.seed``, so a fault environment reproduces byte-identically across
processes — faults are part of the experiment, not noise.

The fleet-facing generators are duck-typed against the fleet (cards, clock,
kill/degrade entry points) so this module never imports :mod:`repro.cluster`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.faults.spec import FaultSpec
from repro.fpga.config_memory import ConfigurationMemory
from repro.sim.kernel import Timeout
from repro.sim.rand import SeededRandom


class FaultInjector:
    """Turns a :class:`FaultSpec` into deterministic fault events."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        root = SeededRandom(spec.seed)
        # Independent sub-streams per fault class: varying the upset rate in
        # a sweep must not perturb the stall schedule and vice versa (kills
        # are scheduled, not drawn).
        self._upset_rng = root.fork("upsets")
        self._port_rng = root.fork("port-faults")
        self.upsets = 0

    # ----------------------------------------------------------- manual face
    def upset_memory(
        self, memory: ConfigurationMemory, rng: Optional[SeededRandom] = None
    ) -> Tuple[object, bool]:
        """Inject one upset event into *memory* per the spec's process.

        Returns ``(frame_address, changed)`` where *changed* says whether the
        readback actually changed (see :meth:`Frame.inject_upset`).
        """
        rng = rng if rng is not None else self._upset_rng
        spec = self.spec
        if spec.process == "targeted":
            targets = memory.configured_frames()
            if not targets:
                targets = memory.geometry.all_frames()
        else:
            targets = memory.geometry.all_frames()
        address = targets[rng.integer(0, len(targets) - 1)]
        total_bits = memory.geometry.frame_config_bytes * 8
        bit_index = rng.integer(0, total_bits - 1)
        bits = spec.burst_bits if spec.process == "burst" else 1
        changed = memory.corrupt_bit(address, bit_index, bits=bits)
        self.upsets += 1
        return address, changed

    # ------------------------------------------------------------ fleet face
    def processes(self, fleet) -> List[Tuple[str, object]]:
        """Named kernel generator factories for the fleet to run as services.

        The fleet re-spawns a factory whose process has finished, so fault
        streams restart cleanly on every :meth:`~repro.cluster.fleet.Fleet.
        run` call; each stream stops itself when the fleet goes idle (no
        undelivered arrivals, no outstanding work), which is what lets the
        kernel's event queue drain.
        """
        factories: List[Tuple[str, object]] = []
        if self.spec.upset_rate_per_s > 0:
            factories.append(("fault-upsets", lambda: self._upset_process(fleet)))
        if self.spec.port_fault_rate_per_s > 0:
            factories.append(("fault-ports", lambda: self._port_fault_process(fleet)))
        if self.spec.card_kill_times_ns:
            factories.append(("fault-kills", lambda: self._kill_process(fleet)))
        return factories

    def _alive_cards(self, fleet) -> list:
        return [card for card in fleet.cards if card.health != "down"]

    def _upset_process(self, fleet):
        rng = self._upset_rng
        # upset_rate_per_s is *per card*: the fleet-wide event rate scales
        # with the silicon actually alive, so killing a card removes its
        # share of the flux instead of redistributing it onto survivors.
        per_card_gap = self.spec.mean_upset_gap_ns
        while True:
            alive = len(self._alive_cards(fleet))
            if not alive:
                return
            yield Timeout(round(rng.exponential(per_card_gap / alive)))
            if fleet.is_idle:
                return
            cards = self._alive_cards(fleet)
            if not cards:
                return
            card = cards[rng.integer(0, len(cards) - 1)]
            memory = card.driver.coprocessor.device.memory
            address, changed = self.upset_memory(memory, rng=rng)
            fleet.record_fault_event(
                "upset", card.name, frame=str(address), effective=changed
            )

    def _port_fault_process(self, fleet):
        rng = self._port_rng
        duration = round(self.spec.port_fault_duration_ns)
        stall = self.spec.port_fault_kind == "stall"
        while True:
            yield Timeout(round(rng.exponential(self.spec.mean_port_fault_gap_ns)))
            if fleet.is_idle:
                return
            cards = [card for card in self._alive_cards(fleet) if card.health == "up"]
            if not cards:
                continue
            card = cards[rng.integer(0, len(cards) - 1)]
            if stall:
                # Transient: the next configuration transfer on this card
                # absorbs the delay; no health change, nothing to recover.
                card.driver.coprocessor.device.port.stall_for(duration)
                fleet.record_fault_event("stall", card.name, duration_ns=duration)
            else:
                fleet.degrade_card(card.index, duration)

    #: How often the kill scheduler wakes to check for fleet idleness while
    #: waiting for a distant kill time.
    _KILL_IDLE_CHECK_NS = 250_000

    def _kill_process(self, fleet):
        # Scheduled kills run in time order from the fleet-run's start.  The
        # wait is chunked so a kill scheduled far beyond the trace does not
        # keep simulating dead time (and inflating the availability window)
        # after the fleet has drained — like the other fault streams, the
        # scheduler stops once the fleet is idle.
        started = fleet.clock.now
        for time_ns, index in sorted(self.spec.card_kill_times_ns):
            target = started + round(time_ns)
            while True:
                remaining = target - fleet.clock.now
                if remaining <= 0:
                    break
                yield Timeout(min(remaining, self._KILL_IDLE_CHECK_NS))
                if fleet.is_idle:
                    return
            if 0 <= index < len(fleet.cards):
                fleet.kill_card(index)
