"""Replacement policies that read the whole trace: benchmark-side only.

A card's mini OS ranks victims from its replacement table alone; it cannot
know the requests still to come.  An offline policy can, because the
benchmark builds it with the whole trace and steps it through the trace.  It
is installed on a built card by assignment, ``copro.minios.policy = policy``,
the mini OS's one policy hook, so nothing in ``src/`` knows it exists.

:class:`BeladyPolicy` is Belady's farthest-next-use rule (IBM Systems
Journal, 1966), E3's clairvoyant row.  It is optimal for equal-sized pages,
but functions span different frame counts: evicting the farthest next use
can free more frames than the newcomer needs, or too few, so it takes a
second victim.  Which functions stay resident does not depend on where they
are placed.  On E3's round-robin trace random eviction beats it (0.7600 vs
0.7500 hit rate).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence

from repro.mcu.minios.policies import ReplacementPolicy
from repro.mcu.minios.replacement import FrameReplacementEntry, FrameReplacementTable


class BeladyPolicy(ReplacementPolicy):
    """Evict the resident function whose next use is farthest away.

    Built with the trace's function names, in order.  ``cursor`` is the
    index of the request being served; :class:`SteppedEngine` moves it on
    once per request.  A function never used again ranks farthest, and ties
    fall to the oldest last access, then the name.  So at the trace's last
    request, when nothing is used again, the ranking is LRU's.
    """

    name = "belady"

    def __init__(self, functions: Sequence[str]) -> None:
        self._uses: Dict[str, List[int]] = {}
        for index, name in enumerate(functions):
            self._uses.setdefault(name, []).append(index)
        self._never = len(functions)
        self.cursor = 0

    def rank_victims(self, table: FrameReplacementTable) -> List[FrameReplacementEntry]:
        def next_use(name: str) -> int:
            uses = self._uses.get(name, [])
            after = bisect_right(uses, self.cursor)
            return uses[after] if after < len(uses) else self._never

        return sorted(table, key=lambda entry: (-next_use(entry.name), entry.last_access_ns, entry.name))


class SteppedEngine:
    """A card running an offline policy, for :class:`~repro.core.ondemand.TraceRunner`.

    Installs *policy* on the card's mini OS and moves the policy's cursor on
    after each request the card executes.
    """

    def __init__(self, copro, policy) -> None:
        copro.minios.policy = policy
        self.copro = copro
        self.policy = policy
        self.clock = copro.clock

    def execute(self, name: str, data: bytes):
        result = self.copro.execute(name, data)
        self.policy.cursor += 1
        return result
