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
from operator import itemgetter
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.fleet import Fleet

#: Migrations planned per rebalance period at most, so residency moves in
#: measured steps instead of thrashing.
MAX_ORDERS_PER_CYCLE = 2
#: Functions a donor always keeps: its own traffic still needs a working set.
KEEP_RESIDENT = 1
#: A load snapshot's (outstanding, frames used): the donor has the most.
_LOAD = itemgetter(1, 2)


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

    # ------------------------------------------------------------------ plan
    def plan(self, fleet: "Fleet") -> List[MigrationOrder]:
        """Plan this cycle's migrations (possibly none).

        Deterministic: every choice reduces to sorted keys ending in the card
        index or the function name, so the same fleet state always produces
        the same orders — which is what keeps rebalanced schedules
        byte-reproducible.
        """
        # Each live card is read once per tick, as (outstanding, frames
        # used): planning changes no queue and no fabric, so every test below
        # reads this snapshot.
        loads = [
            (card, card.outstanding, card.table.held_frames)
            for card in fleet.cards
            if card.health == "up"
        ]
        if len(loads) < 2:
            return []
        # The donor has the most work queued, then the fullest fabric; of
        # equals, max keeps the first: fleet.cards runs in ascending index.
        donor, donor_outstanding, donor_used = max(loads, key=_LOAD)
        others = [load for load in loads if load[0] is not donor]
        least_outstanding = min([outstanding for _, outstanding, _ in others])
        least_used = min([used for _, _, used in others])
        if (
            donor_outstanding - least_outstanding < self.min_queue_skew
            and donor_used - least_used < self.min_frame_skew
        ):
            return []
        resident = donor.table.names()
        budget = min(MAX_ORDERS_PER_CYCLE, len(resident) - KEEP_RESIDENT)
        if budget <= 0:
            return []
        now = fleet.clock.now
        coprocessor = donor.driver.coprocessor
        per_function = coprocessor.stats.per_function_requests
        movable = [
            name
            for name in resident
            if name not in fleet.migrating
            and now - self._last_ordered.get(name, -self.cooldown_ns) >= self.cooldown_ns
        ]
        # Hottest first: moving the functions that attract the most traffic
        # moves the most load per migration paid for.
        movable.sort(key=lambda name: (-per_function.get(name, 0), name))
        orders: List[MigrationOrder] = []
        planned_frames = {card.index: 0 for card, _, _ in others}
        for name in movable:
            if len(orders) >= budget:
                break
            if any(card.holds(name) for card, _, _ in others):
                continue  # already covered elsewhere; releasing here suffices
            frames_needed = coprocessor.bank.by_name(name).frames_required(
                coprocessor.geometry
            )
            # A move must make the fleet measurably better, not just shuffle
            # residency: either it strictly narrows the frame imbalance (the
            # destination ends up no fuller than the donor ends up — the
            # potential argument that guarantees compaction terminates), or
            # the donor's queue is long enough that shedding the function's
            # traffic is worth the card time.  A fabric whose frames hold a
            # different number of bytes (a heterogeneous fleet) is never a
            # candidate: the blob's frames would not fit there.  The least
            # key wins: the least outstanding, then the most frames left
            # free, then the lowest index.
            candidates = []
            for card, outstanding, used in others:
                geometry = card.driver.coprocessor.geometry
                held = used + planned_frames[card.index]
                free = geometry.frame_count - held
                if (
                    coprocessor.geometry.frame_config_bytes == geometry.frame_config_bytes
                    and free >= frames_needed
                    and (
                        held + frames_needed <= donor_used - frames_needed
                        or donor_outstanding - outstanding >= self.min_queue_skew
                    )
                ):
                    candidates.append((outstanding, -free, card.index, card))
            if not candidates:
                continue
            dest = min(candidates)[3]
            planned_frames[dest.index] += frames_needed
            donor_used -= frames_needed
            self._last_ordered[name] = now
            orders.append(MigrationOrder(name, donor.index, dest.index))
        return orders
