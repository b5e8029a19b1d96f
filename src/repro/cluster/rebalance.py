"""Fleet rebalancing: migrate resident functions off overloaded cards.

The affinity dispatcher makes cards *specialise* — each function's frames
live on exactly one card and its traffic follows them there.  That is the
hit-rate win E9 measures, but it has a failure mode at fleet scale: when one
card accumulates several hot functions (it was warmed first, it survived a
neighbour's failure, the tenant mix shifted), affinity pins all of their
traffic to it while the rest of the fleet idles.  Configuration residency is
the *cause* of the skew, so the fix is to move residency itself: checkpoint a
function's frames by readback, transfer them over the PCI, restore them on an
idle card and release the source — the CAPTURE/RESTORE machinery the fault
layer's golden images already half-built.

The :class:`Rebalancer` is the planning half: a pure, deterministic function
from the fleet's observable state (queue depths, per-card residency and frame
usage, per-function request counts) to a list of migration orders.  The
execution half lives in :class:`~repro.cluster.fleet.Fleet`: orders flow
through the same bounded card queues as requests, scrubs and heals, so every
migration phase — capture on the source, restore on the destination, release
back on the source — contends for real card time.  During the restore window
the function is resident on *both* cards and the affinity policy's
least-outstanding tie-break drains traffic toward the new home, so migration
never leaves a service gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.bitstream.relocate import compatible_fabrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.card import FleetCard
    from repro.cluster.fleet import Fleet

#: Migrations planned per rebalance period at most, so residency moves in
#: measured steps instead of thrashing.
MAX_ORDERS_PER_CYCLE = 2
#: Functions a donor always keeps: its own traffic still needs a working set.
KEEP_RESIDENT = 1


@dataclass(frozen=True)
class MigrationOrder:
    """One planned migration: move *function* from *source* to *dest*."""

    function: str
    source_index: int
    dest_index: int


class Rebalancer:
    """Plans migrations from load and residency skew.

    Parameters
    ----------
    min_queue_skew:
        Outstanding-work gap (hottest minus coolest card) that triggers
        load-driven migration.
    min_frame_skew:
        Occupied-frame gap that triggers residency-driven migration even when
        queues are momentarily drained — the "one card holds everything"
        regime a freshly warmed or freshly healed fleet sits in.
    cooldown_ns:
        Minimum fleet time (whole nanoseconds) between two migrations of the
        *same* function — the anti-thrash guard that stops a function
        ping-ponging between two cards whose queues trade places every period.
    """

    def __init__(self, min_queue_skew: int, min_frame_skew: int, cooldown_ns: int) -> None:
        if min_queue_skew < 1 or min_frame_skew < 1:
            raise ValueError("skew thresholds must be at least 1")
        self.min_queue_skew = min_queue_skew
        self.min_frame_skew = min_frame_skew
        self.cooldown_ns = cooldown_ns
        self._last_ordered: dict = {}

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _frames_used(card: "FleetCard") -> int:
        geometry = card.driver.coprocessor.geometry
        return geometry.frame_count - card.free_frames

    def _skewed(self, donor: "FleetCard", others: List["FleetCard"]) -> bool:
        min_outstanding = min(card.outstanding for card in others)
        min_used = min(self._frames_used(card) for card in others)
        return (
            donor.outstanding - min_outstanding >= self.min_queue_skew
            or self._frames_used(donor) - min_used >= self.min_frame_skew
        )

    # ------------------------------------------------------------------ plan
    def plan(self, fleet: "Fleet") -> List[MigrationOrder]:
        """Plan this cycle's migrations (possibly none).

        Deterministic: every choice reduces to sorted keys ending in the card
        index or the function name, so the same fleet state always produces
        the same orders — which is what keeps rebalanced schedules
        byte-reproducible.
        """
        alive = [card for card in fleet.cards if card.health == "up"]
        if len(alive) < 2:
            return []
        donor = min(
            alive,
            key=lambda card: (-card.outstanding, -self._frames_used(card), card.index),
        )
        others = [card for card in alive if card is not donor]
        if not self._skewed(donor, others):
            return []
        now = fleet.clock.now
        coprocessor = donor.driver.coprocessor
        per_function = coprocessor.stats.per_function_requests
        resident = donor.resident_functions()
        movable = [
            name
            for name in resident
            if name not in fleet.migrating
            and now - self._last_ordered.get(name, -self.cooldown_ns) >= self.cooldown_ns
        ]
        # Hottest first: moving the functions that attract the most traffic
        # moves the most load per migration paid for.
        movable.sort(key=lambda name: (-per_function.get(name, 0), name))
        budget = min(MAX_ORDERS_PER_CYCLE, max(0, len(resident) - KEEP_RESIDENT))
        orders: List[MigrationOrder] = []
        donor_used = self._frames_used(donor)
        planned_frames = {card.index: 0 for card in others}
        for name in movable:
            if len(orders) >= budget:
                break
            if any(card.holds(name) for card in others):
                continue  # already covered elsewhere; releasing here suffices
            frames_needed = coprocessor.bank.by_name(name).frames_required(
                coprocessor.geometry
            )
            # A move must make the fleet measurably better, not just shuffle
            # residency: either it strictly narrows the frame imbalance (the
            # destination ends up no fuller than the donor ends up — the
            # potential argument that guarantees compaction terminates), or
            # the donor's queue is long enough that shedding the function's
            # traffic is worth the card time.  Frame-incompatible fabrics
            # (a heterogeneous fleet) are never candidates: a blob's payload
            # would mean something else there.
            candidates = [
                card
                for card in others
                if compatible_fabrics(
                    coprocessor.geometry, card.driver.coprocessor.geometry
                )
                and card.free_frames - planned_frames[card.index] >= frames_needed
                and (
                    self._frames_used(card) + planned_frames[card.index] + frames_needed
                    <= donor_used - frames_needed
                    or donor.outstanding - card.outstanding >= self.min_queue_skew
                )
            ]
            if not candidates:
                continue
            dest = min(
                candidates,
                key=lambda card: (
                    card.outstanding,
                    -(card.free_frames - planned_frames[card.index]),
                    card.index,
                ),
            )
            planned_frames[dest.index] += frames_needed
            donor_used -= frames_needed
            self._last_ordered[name] = now
            orders.append(MigrationOrder(name, donor.index, dest.index))
        return orders
