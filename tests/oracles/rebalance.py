"""The per-card-property rebalance planner, kept as the reference for
``Rebalancer.plan``.

:meth:`repro.cluster.rebalance.Rebalancer.plan` reads each live card's
``(outstanding, frames used)`` once per tick and runs every test on that
snapshot.  :class:`ReferenceRebalancer` is the planner it replaced: it asks
the card again wherever a test needs a number, through the ``free_frames``
property chain.  ``tests/test_rebalance_properties.py`` steps fleets with the
shipped planner and, at every tick, runs this one on a copy of its
``_last_ordered`` and requires the same orders; it does the same for one
tick on drawn fleet states.
"""

from __future__ import annotations

from typing import List

from repro.cluster.rebalance import KEEP_RESIDENT, MAX_ORDERS_PER_CYCLE, MigrationOrder, Rebalancer


class ReferenceRebalancer(Rebalancer):
    """``Rebalancer`` asking each card for its numbers at every test."""

    @staticmethod
    def _frames_used(card) -> int:
        geometry = card.driver.coprocessor.geometry
        return geometry.frame_count - card.free_frames

    def _skewed(self, donor, others) -> bool:
        min_outstanding = min(card.outstanding for card in others)
        min_used = min(self._frames_used(card) for card in others)
        return (
            donor.outstanding - min_outstanding >= self.min_queue_skew
            or self._frames_used(donor) - min_used >= self.min_frame_skew
        )

    def plan(self, fleet) -> List[MigrationOrder]:
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
        movable.sort(key=lambda name: (-per_function.get(name, 0), name))
        budget = min(MAX_ORDERS_PER_CYCLE, max(0, len(resident) - KEEP_RESIDENT))
        orders: List[MigrationOrder] = []
        donor_used = self._frames_used(donor)
        planned_frames = {card.index: 0 for card in others}
        for name in movable:
            if len(orders) >= budget:
                break
            if any(card.holds(name) for card in others):
                continue
            frames_needed = coprocessor.bank.by_name(name).frames_required(
                coprocessor.geometry
            )
            candidates = [
                card
                for card in others
                if coprocessor.geometry.frame_config_bytes
                == card.driver.coprocessor.geometry.frame_config_bytes
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
