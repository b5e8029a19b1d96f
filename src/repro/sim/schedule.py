"""Schedule policies: controllable tie-breaks for the kernel's ready set.

The kernel's dispatch order is a total order over ``(time, seq)`` entry
keys, merged across the two scheduler tiers (same-timestamp FIFO deque +
future-event heap).  Sequence numbers make the order *deterministic*, but
they also make it *singular*: every run explores exactly one interleaving of
the control-plane actors (scrubber, defragmenter, rebalancer, heal orders)
even though any permutation of the same-time ready set is a legal schedule
of the modelled system.

A :class:`SchedulePolicy` makes that tie-break a strategy object.  When a
:class:`~repro.sim.kernel.Simulator` is given a policy, dispatch gathers the
**ready set** — every entry at the earliest time across both tiers,
ordered by sequence number — and asks the policy
to pick an index.  Index ``0`` is always "the entry the default kernel would
have dispatched", so :class:`SchedulePolicy` itself (and a
:class:`ScriptedPolicy` past the end of its script) reproduces the default
schedule choice-for-choice.  Without a policy the kernel never gathers a
ready set at all: it pops the merged head directly.

Policies *record* what they saw — the ready-set width (``branching``) and
the chosen index (``choices``) at every choice point — which is exactly the
information a schedule explorer needs for stateless DFS re-execution: re-run
the scenario under ``ScriptedPolicy(prefix)`` and the first ``len(prefix)``
choice points replay verbatim, because everything before a choice point is a
deterministic function of the choices made so far.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


class ScheduleDivergenceError(RuntimeError):
    """A scripted choice did not fit the ready set it was replayed against.

    Raised when a recorded choice index is out of range for the ready set
    observed at replay time.  Since a scenario's schedule is a deterministic
    function of the choice prefix, this only happens when the scenario
    itself changed between record and replay (different workload, different
    seed, different code) — it is a bug in the harness's usage, never a
    legal exploration outcome, so it fails loudly instead of clamping.
    """


class SchedulePolicy:
    """Base policy: always index 0 — byte-identical to the default kernel.

    ``choose`` receives the ready set as a sequence of kernel entry tuples
    ``(time, seq, fn, arg1, arg2)`` sorted by ``seq`` and
    returns the index to dispatch.  The kernel only consults the policy when
    the ready set has at least two entries; singleton sets are dispatched
    directly (and not recorded as choice points).

    Subclasses that permute the order should also record the decision in
    ``choices`` / ``branching`` so the run is replayable.
    """

    #: Chosen index per choice point, in dispatch order.
    choices: List[int]
    #: Ready-set width per choice point (``len(ready)``), in dispatch order.
    branching: List[int]

    def __init__(self) -> None:
        self.choices = []
        self.branching = []

    def choose(self, ready: Sequence[tuple]) -> int:
        """Return the ready-set index to dispatch next (default: 0)."""
        return 0


class ScriptedPolicy(SchedulePolicy):
    """Follow a fixed choice prefix, then fall back to the default order.

    The workhorse of stateless schedule exploration: running a scenario
    under ``ScriptedPolicy(prefix)`` replays the first ``len(prefix)``
    choice points verbatim and takes the default (index 0) branch at every
    later one, while recording the full ``choices`` / ``branching`` log the
    explorer uses to enumerate sibling schedules.
    """

    def __init__(self, prefix: Sequence[int] = ()) -> None:
        super().__init__()
        self.prefix: Tuple[int, ...] = tuple(prefix)
        for index in self.prefix:
            if index < 0:
                raise ValueError("scripted choice indexes must be non-negative")

    def choose(self, ready: Sequence[tuple]) -> int:
        point = len(self.choices)
        index = self.prefix[point] if point < len(self.prefix) else 0
        if index >= len(ready):
            raise ScheduleDivergenceError(
                f"choice point {point}: scripted index {index} does not fit a "
                f"ready set of {len(ready)} entries (scenario diverged from "
                f"the recorded schedule)"
            )
        self.choices.append(index)
        self.branching.append(len(ready))
        return index


class RandomTieBreakPolicy(SchedulePolicy):
    """Pick a uniformly random ready-set entry from a seeded stream.

    Seeded sampling of the schedule space: cheap coverage of interleavings
    DFS would only reach at depth.  Every pick is recorded, so any sampled
    run converts directly into a :class:`ScriptedPolicy` prefix (and hence a
    replayable trace) — randomness chooses the schedule once, determinism
    keeps it.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def choose(self, ready: Sequence[tuple]) -> int:
        index = self._rng.randrange(len(ready))
        self.choices.append(index)
        self.branching.append(len(ready))
        return index
