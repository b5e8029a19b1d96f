"""Seeded randomness helpers.

Every stochastic element of the model (workload generators, random replacement
policy, synthetic bit-stream content) draws from a :class:`SeededRandom` so
experiments are reproducible given a seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


class SeededRandom:
    """A thin, explicit wrapper around :class:`random.Random`.

    Using a dedicated class (rather than the module-level functions) keeps all
    stochastic behaviour attributable to a single seed and lets components
    fork independent, deterministic sub-streams.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self._rng = rng = random.Random(seed)
        #: The generator's own ``random``, for a caller that draws per request
        #: and binds it once: ``uniform()`` is exactly ``random()`` and
        #: ``uniform(0.0, j)`` exactly ``j * random()``, to the bit.
        self.random = rng.random

    def fork(self, label: str) -> "SeededRandom":
        """Create an independent stream derived from this one and *label*.

        The derivation uses a stable FNV-1a hash: the built-in ``hash()`` of a
        string is salted per process, which silently made every forked stream
        (and therefore the phased/zipf workload traces and the experiments
        consuming them) different on each run.  A fixed mix keeps forked
        streams deterministic across processes and machines.
        """
        value = 0x811C9DC5
        for byte in f"{self.seed}\x00{label}".encode("utf-8"):
            value ^= byte
            value = (value * 0x01000193) & 0xFFFFFFFF
        return SeededRandom(value & 0x7FFFFFFF)

    # ----------------------------------------------------------- primitives
    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean."""
        if mean <= 0:
            raise ValueError("mean of an exponential must be positive")
        return self._rng.expovariate(1.0 / mean)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(list(items))

    def shuffle(self, items: Sequence[T]) -> List[T]:
        """Return a shuffled copy (the input is not modified)."""
        copy = list(items)
        self._rng.shuffle(copy)
        return copy

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        return self._rng.sample(list(items), count)

    def bytes(self, count: int) -> bytes:
        """Deterministic pseudo-random byte string of length *count*."""
        if count < 0:
            raise ValueError("byte count must be non-negative")
        return bytes(self._rng.getrandbits(8) for _ in range(count))

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials until the first success (>= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError("geometric probability must be in (0, 1]")
        count = 1
        while self.random() > p:
            count += 1
        return count
