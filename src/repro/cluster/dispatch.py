"""Dispatch policies: which card serves the next arriving request.

A policy sees the request and the fleet's cards (queue depths plus each
card's configuration-residency view) and returns the chosen card, or ``None``
when every admissible card's bounded queue is full (the request is rejected —
admission control, not an error).

Four policies ship:

* :class:`RoundRobinPolicy` — rotate through the cards, skipping full queues.
  Configuration-oblivious: the baseline every fleet experiment compares
  against.
* :class:`LeastOutstandingPolicy` — join the shortest queue.  Load-aware but
  still configuration-oblivious.
* :class:`ConfigAffinityPolicy` — the headline policy: consult each card's
  mini-OS residency and route to a card that already holds the function's
  frames (least-loaded such card), falling back to least-outstanding when the
  function is resident nowhere.  The fallback is what makes cards *specialise*:
  the first request for a cold function lands on the least-loaded card, loads
  there, and every later request for it routes back — so the fleet's combined
  fabric behaves like one big configuration cache instead of N copies of the
  same small one.
* :class:`StaticHashPolicy` — hash each function name to a fixed home card.
  Stateless and history-free, so a fleet partitioned across OS processes
  (:mod:`repro.cluster.sharded`) routes identically to a single-process run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence
from zlib import crc32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.card import FleetCard
    from repro.workloads.multitenant import FleetRequest


class DispatchPolicy:
    """Interface: pick a card for one request (or ``None`` to reject)."""

    name = "base"

    def choose(
        self, request: "FleetRequest", cards: Sequence["FleetCard"]
    ) -> Optional["FleetCard"]:  # pragma: no cover - interface
        raise NotImplementedError

    @staticmethod
    def _pick_admissible(
        cards: Sequence["FleetCard"], key
    ) -> Optional["FleetCard"]:
        """The admissible card minimising *key* (first wins ties).

        Every policy's tie-breaks route through deterministic keys ending in
        ``card.index``, which keeps N-card schedules reproducible.
        """
        best: Optional["FleetCard"] = None
        best_key = None
        for card in cards:
            if not card.has_room:
                continue
            card_key = key(card)
            if best_key is None or card_key < best_key:
                best, best_key = card, card_key
        return best

    @classmethod
    def _least_outstanding(cls, cards: Sequence["FleetCard"]) -> Optional["FleetCard"]:
        """The admissible card with the fewest outstanding requests."""
        return cls._pick_admissible(cards, lambda card: (card.outstanding, card.index))


class RoundRobinPolicy(DispatchPolicy):
    """Rotate through the cards regardless of load or residency."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(
        self, request: "FleetRequest", cards: Sequence["FleetCard"]
    ) -> Optional["FleetCard"]:
        count = len(cards)
        for step in range(count):
            card = cards[(self._next + step) % count]
            if card.has_room:
                self._next = (self._next + step + 1) % count
                return card
        return None


class LeastOutstandingPolicy(DispatchPolicy):
    """Join the shortest queue (queued + in service)."""

    name = "least_outstanding"

    def choose(
        self, request: "FleetRequest", cards: Sequence["FleetCard"]
    ) -> Optional["FleetCard"]:
        return self._least_outstanding(cards)


class ConfigAffinityPolicy(DispatchPolicy):
    """Route to a card whose fabric already holds the function's frames.

    Pure affinity: a resident card with room wins however long its queue is
    against the others' (load spreads by migration, not by dispatch —
    :mod:`repro.cluster.rebalance`).
    """

    name = "affinity"

    @classmethod
    def _spread_fallback(cls, cards: Sequence["FleetCard"]) -> Optional["FleetCard"]:
        """Where a function resident nowhere should load.

        Least outstanding first, then the card with the *most free frames*,
        then lowest index: cold functions spread onto idle fabric where they
        are least likely to evict someone else's resident frames, so the
        fleet's combined fabric fills evenly instead of two hot cards
        thrashing while the rest sit empty.
        """
        return cls._pick_admissible(
            cards, lambda card: (card.outstanding, -card.free_frames, card.index)
        )

    def choose(
        self, request: "FleetRequest", cards: Sequence["FleetCard"]
    ) -> Optional["FleetCard"]:
        # Inlined has_room/holds (one health check instead of two, bound
        # residency probe) and a manual min-scan — no candidate list, no key
        # lambda, no tuple per card: this runs once per dispatched request.
        function = request.function
        choice: Optional["FleetCard"] = None
        choice_outstanding = 0
        choice_index = 0
        for card in cards:
            outstanding = card.outstanding
            if (
                outstanding < card.queue_depth
                and card.health != "down"
                and card._is_resident(function)
            ):
                if (
                    choice is None
                    or outstanding < choice_outstanding
                    or (outstanding == choice_outstanding and card.index < choice_index)
                ):
                    choice = card
                    choice_outstanding = outstanding
                    choice_index = card.index
        if choice is not None:
            return choice
        return self._spread_fallback(cards)


class StaticHashPolicy(DispatchPolicy):
    """Route each function to a fixed *home card* by hashing its name.

    ``home(function) = crc32(function) % total_cards`` — a pure function of
    the request, independent of queue depths, residency or any other dynamic
    fleet state.  That statelessness is the point: a shard hosting a subset
    of the fleet's cards routes its share of the trace to exactly the cards a
    single-process fleet would have picked, which is what makes
    :mod:`repro.cluster.sharded`'s merged schedule digest equal the
    single-process digest.  (The affinity policy cannot be sharded this way:
    its choice depends on the *other* cards' queues and residency.)

    ``total_cards`` is the size of the *logical* fleet.  It defaults to the
    number of cards offered to :meth:`choose` — correct for a whole fleet —
    and must be set explicitly on a shard, where ``cards`` is a subset whose
    ``card.index`` values are global.  A request whose home card is full is
    rejected (``None``): spilling to another card would reintroduce the
    cross-card coupling the policy exists to remove.
    """

    name = "hashed"

    def __init__(self, total_cards: Optional[int] = None) -> None:
        if total_cards is not None and total_cards < 1:
            raise ValueError("total_cards must be at least 1")
        self.total_cards = total_cards

    @staticmethod
    def home_index(function: str, total_cards: int) -> int:
        """Global index of *function*'s home card."""
        return crc32(function.encode("utf-8")) % total_cards

    def choose(
        self, request: "FleetRequest", cards: Sequence["FleetCard"]
    ) -> Optional["FleetCard"]:
        total = self.total_cards if self.total_cards is not None else len(cards)
        home = crc32(request.function.encode("utf-8")) % total
        for card in cards:
            if card.index == home:
                return card if card.has_room else None
        raise ValueError(
            f"home card {home} for {request.function!r} is not hosted here; "
            "shard traces must be filtered to the shard's own cards"
        )


#: name -> zero-argument policy factory.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastOutstandingPolicy.name: LeastOutstandingPolicy,
    ConfigAffinityPolicy.name: ConfigAffinityPolicy,
    StaticHashPolicy.name: StaticHashPolicy,
}


def build_dispatch_policy(name: str) -> DispatchPolicy:
    """Instantiate a dispatch policy by name (see :data:`POLICIES`)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return factory()
