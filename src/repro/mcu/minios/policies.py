"""Frame replacement policies.

The paper's policy makes "those frames that belong to the frequently least
used Algorithm potential candidates for replacement", choosing the algorithm
"which has the oldest time stamp" — i.e. per-algorithm LRU.  Experiment E3
compares that choice against FIFO, LFU and Random, so every policy implements
the same small interface: rank the resident entries from most to least
evictable, reading only the replacement table.  A policy sees what a card's
controller can see and nothing more — not the requests still to come, and
not the clock, since the table's time stamps already order every access.
E3's clairvoyant row (farthest next use) is a policy of the benchmark,
installed on a built card's mini OS (``benchmarks/offline_policies.py``),
not one a card can run.

Victims are whole algorithms (not individual frames): partial reconfiguration
erases the evicted algorithm's frames, returning them to the free frame list.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Set

from repro.mcu.minios.replacement import FrameReplacementEntry, FrameReplacementTable
from repro.sim.rand import SeededRandom


class ReplacementPolicy(abc.ABC):
    """Chooses which resident algorithms to evict to free enough frames."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        """Resident entries ordered from most to least evictable."""

    def select_victims(
        self,
        table: FrameReplacementTable,
        frames_needed: int,
        free_frames: int,
        protect: Optional[Set[str]] = None,
    ) -> List[FrameReplacementEntry]:
        """Pick victims until ``free_frames`` plus their frames covers the need.

        Entries named in *protect* (typically functions mid-execution) are
        never selected.  Raises :class:`CapacityError` when even evicting
        every unprotected algorithm would not free enough frames.
        """
        protect = protect or set()
        victims: List[FrameReplacementEntry] = []
        available = free_frames
        if available >= frames_needed:
            return victims
        for entry in self.rank_victims(table):
            if entry.name in protect:
                continue
            victims.append(entry)
            available += entry.frame_count
            if available >= frames_needed:
                return victims
        raise CapacityError(
            f"cannot free {frames_needed} frames: only {available} frames reachable "
            f"after evicting every unprotected algorithm"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class CapacityError(RuntimeError):
    """The fabric is too small for the requested function even after evictions."""


class LruPolicy(ReplacementPolicy):
    """Evict the algorithm with the oldest last-access time stamp (the paper's policy)."""

    name = "lru"

    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        return sorted(table, key=lambda entry: (entry.last_access_ns, entry.name))


class FifoPolicy(ReplacementPolicy):
    """Evict the algorithm that has been resident the longest."""

    name = "fifo"

    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        return sorted(table, key=lambda entry: (entry.loaded_at_ns, entry.name))


class LfuPolicy(ReplacementPolicy):
    """Evict the algorithm with the fewest accesses since it was loaded."""

    name = "lfu"

    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        return sorted(table, key=lambda entry: (entry.access_count, entry.last_access_ns, entry.name))


class RandomPolicy(ReplacementPolicy):
    """Evict uniformly at random (seeded, so runs are reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = SeededRandom(seed)

    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        return self._rng.shuffle(sorted(table, key=lambda entry: entry.name))


_POLICIES: Dict[str, Callable[[], ReplacementPolicy]] = {
    LruPolicy.name: LruPolicy,
    FifoPolicy.name: FifoPolicy,
    LfuPolicy.name: LfuPolicy,
    RandomPolicy.name: RandomPolicy,
}


def build_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by name (``random`` honours *seed*)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown replacement policy {name!r}; known: {known}") from None
    if name == RandomPolicy.name:
        return RandomPolicy(seed)
    return factory()


def available_policies() -> List[str]:
    return sorted(_POLICIES)
