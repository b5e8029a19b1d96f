"""Trace generators.

All generators are deterministic given their seed, and size each request's
payload from the target function's nominal input size (times an optional
multiplier) so the traces remain realistic as the bank changes.

:class:`FunctionChooser` is the one popularity model: the Zipf, phased and
uniform closed-loop traces draw their functions from it, and so does every
tenant of a :mod:`multi-tenant <repro.workloads.multitenant>` arrival stream.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import accumulate, count
from typing import Iterator, List, Optional, Sequence

from repro.functions.bank import FunctionBank
from repro.sim.rand import SeededRandom
from repro.workloads.trace import Request, Trace

#: Functions in a phased mix's working set, each phase.
WORKING_SET = 3


def synthesize_payload(bank: FunctionBank, rng: SeededRandom, function_name: str, blocks: int) -> bytes:
    """*blocks* inputs' worth of bytes for *function_name*, from ``rng.fork("payload:<name>")``.

    A fork draws nothing from *rng*, so the payload depends only on the seed
    and the name: a stream computes it once per function and reuses it.
    """
    size = bank.by_name(function_name).spec.input_bytes * blocks
    return rng.fork(f"payload:{function_name}").bytes(size)


class FunctionChooser:
    """Draws an index into *names* per request, and keeps one payload per name.

    ``mix`` is the popularity model:

    * ``"zipf"`` — the function of rank *r* has weight ``1 / (r + 1) ** skew``;
      a draw is one ``random()`` scaled by the total and matched against the
      running-sum ``cumulative`` table (a small set of hot functions takes most
      requests: the regime where frame replacement matters);
    * ``"phased"`` — every ``phase_length`` draws, ``rng.fork("phase:<i>")``
      samples a working set of :data:`WORKING_SET` functions, and each draw
      picks one of them;
    * ``"uniform"`` — every function equally likely.
    """

    def __init__(
        self,
        bank: FunctionBank,
        names: Sequence[str],
        rng: SeededRandom,
        mix: str = "uniform",
        skew: float = 1.0,
        phase_length: int = 50,
        payload_blocks: int = 1,
    ) -> None:
        if not names:
            raise ValueError("cannot choose from an empty function list")
        if mix == "zipf" and skew < 0:
            raise ValueError("zipf skew must be non-negative")
        if mix == "phased" and phase_length <= 0:
            raise ValueError("phase length must be positive")
        self.names = list(names)
        self.payloads = [synthesize_payload(bank, rng, name, payload_blocks) for name in self.names]
        self.rng = rng
        self.random = rng.random
        self.indices = range(len(self.names))
        #: Zipf only: running sums of the rank weights, and their total.
        self.cumulative: Optional[List[float]] = None
        self.total = 0.0
        if mix == "zipf":
            self.cumulative = list(accumulate(1.0 / ((rank + 1) ** skew) for rank in self.indices))
            self.total = self.cumulative[-1]
            self.next_index = self._zipf
        elif mix == "phased":
            self.next_index = self._phases(phase_length, min(WORKING_SET, len(self.names))).__next__
        else:
            self.next_index = partial(rng.choice, self.indices)

    def _zipf(self) -> int:
        # total * random() <= total == cumulative[-1]: always in range.
        return bisect_left(self.cumulative, self.total * self.random())

    def _phases(self, phase_length: int, working_set: int) -> Iterator[int]:
        for phase in count():
            active = self.rng.fork(f"phase:{phase}").sample(self.indices, working_set)
            for _ in range(phase_length):
                yield self.rng.choice(active)


class TraceGenerator:
    """Shared machinery: payload synthesis.  Its traces are closed loop: the
    host issues each request when the previous one completes."""

    def __init__(self, bank: FunctionBank, seed: int = 0, payload_blocks: int = 1) -> None:
        if payload_blocks <= 0:
            raise ValueError("payload_blocks must be positive")
        self.bank = bank
        self.rng = SeededRandom(seed)
        self.payload_blocks = payload_blocks

    def build(self, function_sequence: Sequence[str], name: str) -> Trace:
        """Turn a function-name sequence into a full trace."""
        payloads = {
            function: synthesize_payload(self.bank, self.rng, function, self.payload_blocks)
            for function in set(function_sequence)
        }
        requests = [Request(function, payloads[function]) for function in function_sequence]
        return Trace(requests, name=name)

    def choose(self, names: Sequence[str], length: int, name: str, **mix) -> Trace:
        """A *length*-request trace whose functions a :class:`FunctionChooser` draws."""
        chooser = FunctionChooser(self.bank, names, self.rng, payload_blocks=self.payload_blocks, **mix)
        chosen = [chooser.next_index() for _ in range(length)]
        requests = [Request(chooser.names[i], chooser.payloads[i]) for i in chosen]
        return Trace(requests, name=name)


def _function_names(bank: FunctionBank, functions: Optional[Sequence[str]]) -> List[str]:
    if functions is None:
        return bank.names()
    for name in functions:
        bank.by_name(name)  # raises on unknown names
    return list(functions)


def uniform_trace(
    bank: FunctionBank,
    length: int,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """Every request picks a function uniformly at random."""
    generator = TraceGenerator(bank, seed, payload_blocks)
    return generator.choose(_function_names(bank, functions), length, f"uniform-{length}")


def zipf_trace(
    bank: FunctionBank,
    length: int,
    skew: float = 1.0,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """Zipf-skewed popularity: a few hot functions dominate the request mix."""
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks)
    return generator.choose(names, length, f"zipf{skew:.1f}-{length}", mix="zipf", skew=skew)


def phased_trace(
    bank: FunctionBank,
    length: int,
    phase_length: int = 100,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """Phased behaviour: the active working set of functions changes every phase.

    This is the regime where replacement policy differences are largest —
    within a phase the working set fits the fabric, across phases it does not.
    """
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks)
    label = f"phased-{min(WORKING_SET, len(names))}x{phase_length}-{length}"
    return generator.choose(names, length, label, mix="phased", phase_length=phase_length)


def round_robin_trace(
    bank: FunctionBank,
    length: int,
    functions: Optional[Sequence[str]] = None,
    repeats_per_function: int = 1,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """Strict rotation through the functions — the worst case for any cache.

    ``repeats_per_function`` issues each function several times in a row
    before switching, which is the knob the agility experiment (E6) sweeps.
    """
    if repeats_per_function <= 0:
        raise ValueError("repeats_per_function must be positive")
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks)
    sequence = [names[(index // repeats_per_function) % len(names)] for index in range(length)]
    return generator.build(sequence, name=f"roundrobin-r{repeats_per_function}-{length}")


def bursty_trace(
    bank: FunctionBank,
    length: int,
    mean_burst: int = 8,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """Geometric bursts: a function stays hot for a random run, then switches."""
    if mean_burst <= 0:
        raise ValueError("mean burst length must be positive")
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks)
    sequence: List[str] = []
    while len(sequence) < length:
        name = generator.rng.choice(names)
        sequence += [name] * generator.rng.geometric(1.0 / mean_burst)
    return generator.build(sequence[:length], name=f"bursty-{mean_burst}-{length}")


def repeated_trace(
    bank: FunctionBank,
    function: str,
    length: int,
    seed: int = 0,
    payload_blocks: int = 1,
) -> Trace:
    """The same function over and over (pure hit-path measurement)."""
    bank.by_name(function)
    generator = TraceGenerator(bank, seed, payload_blocks)
    return generator.build([function] * length, name=f"repeat-{function}-{length}")
