"""Trace generators.

All generators are deterministic given their seed, and size each request's
payload from the target function's nominal input size (times an optional
multiplier) so the traces remain realistic as the bank changes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.functions.bank import FunctionBank
from repro.sim.rand import SeededRandom
from repro.workloads.trace import Request, Trace


class TraceGenerator:
    """Shared machinery: payload synthesis and arrival processes."""

    def __init__(
        self,
        bank: FunctionBank,
        seed: int = 0,
        payload_blocks: int = 1,
        mean_interarrival_ns: float = 0.0,
    ) -> None:
        if payload_blocks <= 0:
            raise ValueError("payload_blocks must be positive")
        if mean_interarrival_ns < 0:
            raise ValueError("the mean inter-arrival time cannot be negative")
        self.bank = bank
        self.rng = SeededRandom(seed)
        self.payload_blocks = payload_blocks
        self.mean_interarrival_ns = mean_interarrival_ns

    def payload_for(self, function_name: str) -> bytes:
        """A deterministic pseudo-random payload sized for *function_name*."""
        spec = self.bank.by_name(function_name).spec
        return self.rng.fork(f"payload:{function_name}").bytes(spec.input_bytes * self.payload_blocks)

    def _arrival(self) -> int:
        if self.mean_interarrival_ns <= 0:
            return 0
        return round(self.rng.exponential(self.mean_interarrival_ns))

    def build(self, function_sequence: Sequence[str], name: str) -> Trace:
        """Turn a function-name sequence into a full trace."""
        requests = [
            Request(
                function=function_name,
                payload=self.payload_for(function_name),
                arrival_offset_ns=self._arrival(),
            )
            for function_name in function_sequence
        ]
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
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """Every request picks a function uniformly at random."""
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    sequence = [generator.rng.choice(names) for _ in range(length)]
    return generator.build(sequence, name=f"uniform-{length}")


def zipf_trace(
    bank: FunctionBank,
    length: int,
    skew: float = 1.0,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """Zipf-skewed popularity: a few hot functions dominate the request mix."""
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    sequence = [names[generator.rng.zipf_index(len(names), skew)] for _ in range(length)]
    return generator.build(sequence, name=f"zipf{skew:.1f}-{length}")


def phased_trace(
    bank: FunctionBank,
    length: int,
    phase_length: int = 100,
    working_set: int = 3,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """Phased behaviour: the active working set of functions changes every phase.

    This is the regime where replacement policy differences are largest —
    within a phase the working set fits the fabric, across phases it does not.
    """
    if phase_length <= 0 or working_set <= 0:
        raise ValueError("phase length and working set size must be positive")
    names = _function_names(bank, functions)
    working_set = min(working_set, len(names))
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    sequence: List[str] = []
    phase_index = 0
    while len(sequence) < length:
        phase_rng = generator.rng.fork(f"phase:{phase_index}")
        active = phase_rng.sample(names, working_set)
        for _ in range(min(phase_length, length - len(sequence))):
            sequence.append(generator.rng.choice(active))
        phase_index += 1
    return generator.build(sequence, name=f"phased-{working_set}x{phase_length}-{length}")


def round_robin_trace(
    bank: FunctionBank,
    length: int,
    functions: Optional[Sequence[str]] = None,
    repeats_per_function: int = 1,
    seed: int = 0,
    payload_blocks: int = 1,
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """Strict rotation through the functions — the worst case for any cache.

    ``repeats_per_function`` issues each function several times in a row
    before switching, which is the knob the agility experiment (E6) sweeps.
    """
    if repeats_per_function <= 0:
        raise ValueError("repeats_per_function must be positive")
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    sequence: List[str] = []
    index = 0
    while len(sequence) < length:
        name = names[index % len(names)]
        for _ in range(min(repeats_per_function, length - len(sequence))):
            sequence.append(name)
        index += 1
    return generator.build(sequence, name=f"roundrobin-r{repeats_per_function}-{length}")


def bursty_trace(
    bank: FunctionBank,
    length: int,
    mean_burst: int = 8,
    functions: Optional[Sequence[str]] = None,
    seed: int = 0,
    payload_blocks: int = 1,
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """Geometric bursts: a function stays hot for a random run, then switches."""
    if mean_burst <= 0:
        raise ValueError("mean burst length must be positive")
    names = _function_names(bank, functions)
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    sequence: List[str] = []
    while len(sequence) < length:
        name = generator.rng.choice(names)
        burst = generator.rng.geometric(1.0 / mean_burst)
        for _ in range(min(burst, length - len(sequence))):
            sequence.append(name)
    return generator.build(sequence, name=f"bursty-{mean_burst}-{length}")


def repeated_trace(
    bank: FunctionBank,
    function: str,
    length: int,
    seed: int = 0,
    payload_blocks: int = 1,
    mean_interarrival_ns: float = 0.0,
) -> Trace:
    """The same function over and over (pure hit-path measurement)."""
    bank.by_name(function)
    generator = TraceGenerator(bank, seed, payload_blocks, mean_interarrival_ns)
    return generator.build([function] * length, name=f"repeat-{function}-{length}")
