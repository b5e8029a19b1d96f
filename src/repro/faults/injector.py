"""Deterministic fault injection, for one card or a whole fleet.

The injector has two faces:

* **Manual** — :meth:`FaultInjector.upset_memory` (and friends) inject one
  fault right now, used by drills and tests.
* **Scheduled** — :meth:`FaultInjector.processes` returns named kernel
  generator factories (upsets, card kills) a
  :class:`~repro.cluster.fleet.Fleet` registers as services; events then
  interleave deterministically with the fleet's own schedule.

Every random draw comes from :class:`~repro.sim.rand.SeededRandom` forks of
``spec.seed``, so a fault environment reproduces byte-identically across
processes — faults are part of the experiment, not noise.

The fleet-facing generators are duck-typed against the fleet (cards, clock,
the kill entry point) so this module never imports :mod:`repro.cluster`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.faults.spec import FaultSpec
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.geometry import FrameAddress
from repro.sim.kernel import Timeout
from repro.sim.rand import SeededRandom


class FaultInjector:
    """Turns a :class:`FaultSpec` into deterministic fault events."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        # Kills are scheduled, not drawn: upsets are the one random stream.
        self._upset_rng = SeededRandom(spec.seed).fork("upsets")
        self.upsets = 0

    # ----------------------------------------------------------- manual face
    def upset_memory(
        self, memory: ConfigurationMemory, rng: Optional[SeededRandom] = None
    ) -> FrameAddress:
        """Flip one bit of *memory* per the spec's process; returns the frame
        it flipped (one flip always changes the frame's readback)."""
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
        memory.corrupt_bit(address, bit_index)
        self.upsets += 1
        return address

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
            address = self.upset_memory(memory, rng=rng)
            fleet.record_fault_event("upset", card.name, frame=str(address), effective=True)

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
