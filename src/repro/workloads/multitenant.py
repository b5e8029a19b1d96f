"""Multi-tenant open-arrival workloads for fleet-scale simulation.

The single-card trace generators in :mod:`repro.workloads.generators` model a
closed loop: one host, one request at a time.  The fleet layer
(:mod:`repro.cluster`) instead serves an *open* arrival stream — requests from
many tenants arrive on their own schedule whether or not earlier ones have
finished, queue at the dispatcher and are routed to cards.

A :class:`FleetRequest` therefore carries an **absolute** arrival time and a
tenant label on top of the usual function/payload pair, and a
:class:`FleetTrace` keeps the requests sorted by arrival.  Tenants are
described by :class:`TenantSpec`: each has a traffic weight, its own function
mix (Zipf-skewed, phased or uniform over its function subset) and its own
deterministic sub-stream of randomness, so the same seed reproduces the same
trace byte for byte across processes.

Why per-tenant *rotated* Zipf ranks: when every tenant is hottest on the same
function there is nothing for an affinity dispatcher to exploit — any card
works.  Rotating each tenant's popularity ranking (tenant 0 hot on the first
function, tenant 1 on the second, ...) reproduces the realistic regime where
the fleet's aggregate working set exceeds one card's fabric but partitions
cleanly across cards, which is exactly the locality the paper's per-card
hit-rate story scales up to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.functions.bank import FunctionBank
from repro.sim.rand import SeededRandom


@dataclass(frozen=True)
class FleetRequest:
    """One tenant request arriving at the fleet's front door."""

    tenant: str
    function: str
    payload: bytes
    #: Absolute arrival time on the fleet timeline (nanoseconds).
    arrival_ns: int
    #: Absolute completion deadline on the fleet timeline, or ``None`` for
    #: the historical no-deadline behaviour.  A request past its deadline is
    #: *expired* — failed fast with its own counter at dispatch and in the
    #: card queues, never silently served late.  (The default keeps every
    #: pre-deadline schedule digest byte-identical; instances built without
    #: the field — e.g. the streaming trace's direct construction — fall back
    #: to this class-level ``None``.)
    deadline_ns: Optional[int] = None

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


class FleetTrace:
    """An arrival-ordered sequence of :class:`FleetRequest`."""

    def __init__(self, requests: Sequence[FleetRequest], name: str = "fleet-trace") -> None:
        self.name = name
        self._requests = sorted(requests, key=lambda request: request.arrival_ns)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[FleetRequest]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> FleetRequest:
        return self._requests[index]

    @property
    def requests(self) -> List[FleetRequest]:
        return list(self._requests)

    @property
    def duration_ns(self) -> int:
        """Arrival time of the last request (0 for an empty trace)."""
        return self._requests[-1].arrival_ns if self._requests else 0

    def tenants(self) -> List[str]:
        return sorted({request.tenant for request in self._requests})

    def function_counts(self) -> Dict[str, int]:
        return dict(Counter(request.function for request in self._requests))

    def per_tenant_counts(self) -> Dict[str, int]:
        return dict(Counter(request.tenant for request in self._requests))

    def describe(self) -> str:
        tenants = self.per_tenant_counts()
        mix = ", ".join(f"{tenant}:{count}" for tenant, count in sorted(tenants.items()))
        return (
            f"FleetTrace {self.name!r}: {len(self)} requests from {len(tenants)} tenants "
            f"over {len(self.function_counts())} functions, "
            f"{self.duration_ns / 1e6:.2f} ms of arrivals ({mix})"
        )


@dataclass(frozen=True)
class TenantSpec:
    """How one tenant behaves.

    ``mix`` selects the per-tenant function-popularity model:

    * ``"zipf"``  — Zipf-skewed popularity with exponent ``skew`` over the
      tenant's function list, rotated by ``rank_offset`` so different tenants
      are hot on different functions;
    * ``"phased"`` — the tenant's active working set of ``working_set``
      functions changes every ``phase_length`` of its own requests;
    * ``"uniform"`` — every function equally likely.
    """

    name: str
    weight: float = 1.0
    mix: str = "zipf"
    skew: float = 1.2
    functions: Optional[Tuple[str, ...]] = None
    rank_offset: int = 0
    phase_length: int = 50
    working_set: int = 3
    payload_blocks: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.functions is not None and not self.functions:
            raise ValueError("a tenant's function list cannot be empty")
        if self.mix not in ("zipf", "phased", "uniform"):
            raise ValueError(f"unknown tenant mix {self.mix!r}")
        if self.payload_blocks <= 0:
            raise ValueError("payload_blocks must be positive")
        if self.mix == "phased" and (self.phase_length <= 0 or self.working_set <= 0):
            raise ValueError("phase length and working set size must be positive")


def default_tenant_mix(
    bank: FunctionBank,
    tenants: int = 4,
    skew: float = 1.2,
    functions: Optional[Sequence[str]] = None,
    payload_blocks: int = 1,
) -> List[TenantSpec]:
    """*tenants* equally-weighted Zipf tenants, each hot on a different function.

    ``rank_offset`` staggers each tenant's popularity ranking so the fleet's
    combined hot set spans the function list — the regime where affinity
    dispatch has something to win.
    """
    if tenants <= 0:
        raise ValueError("need at least one tenant")
    names = tuple(functions) if functions is not None else tuple(bank.names())
    return [
        TenantSpec(
            name=f"tenant{index}",
            mix="zipf",
            skew=skew,
            functions=names,
            rank_offset=index % max(1, len(names)),
            payload_blocks=payload_blocks,
        )
        for index in range(tenants)
    ]


class _TenantStream:
    """Per-tenant deterministic function-choice and payload machinery."""

    def __init__(self, bank: FunctionBank, spec: TenantSpec, rng: SeededRandom) -> None:
        self.spec = spec
        names = list(spec.functions) if spec.functions is not None else bank.names()
        for name in names:
            bank.by_name(name)  # raises on unknown names
        # Rotate the popularity ranking so rank_offset decides which function
        # this tenant hammers hardest.
        offset = spec.rank_offset % len(names)
        self.names = names[offset:] + names[:offset]
        self.rng = rng
        self.requests_drawn = 0
        self._phase_index = -1
        self._phase_active: List[str] = []
        # Payloads are deterministic per (tenant, function) and reused across
        # requests; regenerating identical bytes per request would dominate
        # trace-construction time for long traces.
        self._payloads: Dict[str, bytes] = {}
        self._bank = bank

    def next_function(self) -> str:
        spec = self.spec
        if spec.mix == "zipf":
            index = self.rng.zipf_index(len(self.names), spec.skew)
            name = self.names[index]
        elif spec.mix == "phased":
            phase = self.requests_drawn // spec.phase_length
            if phase != self._phase_index:
                self._phase_index = phase
                phase_rng = self.rng.fork(f"phase:{phase}")
                size = min(spec.working_set, len(self.names))
                self._phase_active = phase_rng.sample(self.names, size)
            name = self.rng.choice(self._phase_active)
        else:  # uniform
            name = self.rng.choice(self.names)
        self.requests_drawn += 1
        return name

    def payload_for(self, function_name: str) -> bytes:
        payload = self._payloads.get(function_name)
        if payload is None:
            spec = self._bank.by_name(function_name).spec
            payload = self.rng.fork(f"payload:{function_name}").bytes(
                spec.input_bytes * self.spec.payload_blocks
            )
            self._payloads[function_name] = payload
        return payload


def multi_tenant_trace(
    bank: FunctionBank,
    tenants: Sequence[TenantSpec],
    length: int,
    mean_interarrival_ns: float = 50_000.0,
    arrival: str = "poisson",
    burst_length: int = 8,
    burst_speedup: float = 8.0,
    seed: int = 0,
    name: Optional[str] = None,
    duration_ns: Optional[int] = None,
) -> FleetTrace:
    """An open-arrival request stream interleaving several tenants.

    Arrival models:

    * ``"poisson"`` — i.i.d. exponential inter-arrival gaps with mean
      ``mean_interarrival_ns`` (the classic open-system assumption);
    * ``"bursty"`` — a two-state modulated process: bursts of geometric
      length ``burst_length`` arrive ``burst_speedup`` times faster than the
      mean, separated by compensating idle gaps, so the long-run rate matches
      the Poisson model while stressing the fleet's queues.

    Each arrival picks a tenant by weight, then the tenant's own stream picks
    the function and payload.  Everything derives from *seed* through
    :meth:`SeededRandom.fork`, so traces are byte-reproducible.

    ``duration_ns`` switches to duration-bounded generation: arrivals stop at
    the first one past the horizon instead of after a fixed count (*length*
    then acts as a hard safety cap).  Reliability experiments (E10) think in
    exposure time — fault processes are rates per second of simulated time —
    so their traces are sized in seconds, not requests.  For the same seed,
    the arrivals a duration-bounded trace shares with the count-bounded one
    are byte-identical (the draw order does not change).
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    if length < 0:
        raise ValueError("trace length cannot be negative")
    if duration_ns is not None and duration_ns < 0:
        raise ValueError("trace duration cannot be negative")
    if mean_interarrival_ns <= 0:
        raise ValueError("the mean inter-arrival time must be positive")
    if arrival not in ("poisson", "bursty"):
        raise ValueError(f"unknown arrival model {arrival!r}")
    if arrival == "bursty" and (burst_length <= 0 or burst_speedup <= 1.0):
        raise ValueError("bursts need burst_length >= 1 and burst_speedup > 1")

    root = SeededRandom(seed)
    arrival_rng = root.fork("arrivals")
    tenant_rng = root.fork("tenant-choice")
    streams = [
        _TenantStream(bank, spec, root.fork(f"tenant:{spec.name}")) for spec in tenants
    ]
    total_weight = sum(spec.weight for spec in tenants)
    cumulative: List[float] = []
    running = 0.0
    for spec in tenants:
        running += spec.weight / total_weight
        cumulative.append(running)

    requests: List[FleetRequest] = []
    now_ns = 0
    burst_remaining = 0
    while len(requests) < length:
        if arrival == "poisson":
            now_ns += round(arrival_rng.exponential(mean_interarrival_ns))
        else:
            if burst_remaining == 0:
                burst_remaining = arrival_rng.geometric(1.0 / burst_length)
                # The idle gap between bursts restores the long-run rate the
                # fast in-burst gaps run ahead of: a burst of L requests must
                # average L * mean in total, and its L-1 in-burst gaps only
                # consume (L-1) * mean / speedup, so the leading gap carries
                # the (L-1) * mean * (1 - 1/speedup) remainder.
                idle_mean = (
                    mean_interarrival_ns
                    * (burst_remaining - 1)
                    * (1.0 - 1.0 / burst_speedup)
                )
                now_ns += round(arrival_rng.exponential(idle_mean + mean_interarrival_ns))
            else:
                now_ns += round(arrival_rng.exponential(mean_interarrival_ns / burst_speedup))
            burst_remaining -= 1
        if duration_ns is not None and now_ns > duration_ns:
            break
        point = tenant_rng.uniform(0.0, 1.0)
        index = len(cumulative) - 1  # guards the point > last-edge rounding case
        for position, edge in enumerate(cumulative):
            if point <= edge:
                index = position
                break
        stream = streams[index]
        function = stream.next_function()
        requests.append(
            FleetRequest(
                tenant=stream.spec.name,
                function=function,
                payload=stream.payload_for(function),
                arrival_ns=now_ns,
            )
        )
    label = name or f"multitenant-{arrival}-{len(tenants)}t-{length}"
    return FleetTrace(requests, name=label)


class StreamingFleetTrace:
    """An O(1)-memory, restartable multi-tenant arrival stream.

    Draw-for-draw identical to ``multi_tenant_trace(..., arrival="poisson")``
    for the same parameters (asserted by the property tests) but with two
    properties a million-request run needs:

    * **Streaming** — requests are produced as the fleet consumes them; no
      10^6-element list is ever materialised.  Memory is O(tenants).
    * **Restartable** — every ``__iter__`` call replays the byte-identical
      stream from the start.  The sharded runner leans on this: each worker
      process regenerates the same stream locally and serves only its own
      cards' share, so no request objects ever cross a process boundary.

    The per-request cost is also trimmed for scale (precomputed Zipf
    cumulative tables instead of per-draw weight rebuilding, bound RNG
    methods, pooled payload bytes, and direct construction of the frozen
    :class:`FleetRequest` — ``object.__new__`` plus a dict, skipping the
    frozen-dataclass ``__setattr__`` detour, which is the single largest
    cost of a naive generator at this scale).
    """

    def __init__(
        self,
        bank: FunctionBank,
        tenants: Sequence[TenantSpec],
        length: int,
        mean_interarrival_ns: float = 50_000.0,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        if length < 0:
            raise ValueError("trace length cannot be negative")
        if mean_interarrival_ns <= 0:
            raise ValueError("the mean inter-arrival time must be positive")
        for spec in tenants:
            if spec.mix != "zipf":
                raise ValueError(
                    "StreamingFleetTrace supports zipf tenants only "
                    f"(tenant {spec.name!r} uses {spec.mix!r})"
                )
        self.bank = bank
        self.tenants = list(tenants)
        self.length = length
        self.mean_interarrival_ns = mean_interarrival_ns
        self.seed = seed
        self.name = name or f"multitenant-stream-{len(tenants)}t-{length}"

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[FleetRequest]:
        root = SeededRandom(self.seed)
        arrival_rng = root.fork("arrivals")
        tenant_rng = root.fork("tenant-choice")
        streams = [
            _TenantStream(self.bank, spec, root.fork(f"tenant:{spec.name}"))
            for spec in self.tenants
        ]
        total_weight = sum(spec.weight for spec in self.tenants)
        cumulative: List[float] = []
        running = 0.0
        for spec in self.tenants:
            running += spec.weight / total_weight
            cumulative.append(running)
        last_tenant = len(cumulative) - 1

        # Per-tenant fast-path tables.  The Zipf cumulative sums are built
        # with the same running addition zipf_index performs, so the bisect
        # below lands on the identical index for the identical uniform draw.
        compiled = []
        for stream in streams:
            skew = stream.spec.skew
            weights = [1.0 / ((rank + 1) ** skew) for rank in range(len(stream.names))]
            zipf_cum: List[float] = []
            acc = 0.0
            for weight in weights:
                acc += weight
                zipf_cum.append(acc)
            payloads = [stream.payload_for(function) for function in stream.names]
            compiled.append(
                (
                    stream.spec.name,
                    stream.names,
                    payloads,
                    zipf_cum,
                    zipf_cum[-1],
                    stream.rng._rng.random,
                )
            )

        # ``expovariate(lambd)`` is ``-log(1 - random()) / lambd`` and
        # ``uniform(0, x)`` is ``0 + x * random()`` — both consume exactly one
        # underlying draw and the inlined expressions are bit-identical
        # (``0.0 + y == y`` and ``1.0 * y == y`` exactly), so the stream stays
        # draw-for-draw equal to ``multi_tenant_trace`` while skipping two
        # Python-level calls per request.
        arrival_random = arrival_rng._rng.random
        tenant_random = tenant_rng._rng.random
        log = math.log
        lambd = 1.0 / self.mean_interarrival_ns
        new = FleetRequest.__new__
        cls = FleetRequest
        # The frozen-dataclass __setattr__ guard also intercepts __dict__
        # assignment; object.__setattr__ installs the attribute dict in one
        # call without it.
        set_dict = object.__setattr__
        now_ns = 0
        for _ in range(self.length):
            now_ns += round(-log(1.0 - arrival_random()) / lambd)
            point = tenant_random()
            index = bisect_left(cumulative, point)
            if index > last_tenant:  # point beyond the last edge (rounding)
                index = last_tenant
            tenant_name, names, payloads, zipf_cum, zipf_total, random_ = compiled[index]
            zipf_point = zipf_total * random_()
            function_index = bisect_left(zipf_cum, zipf_point)
            if function_index >= len(names):
                function_index = len(names) - 1
            request = new(cls)
            set_dict(
                request,
                "__dict__",
                {
                    "tenant": tenant_name,
                    "function": names[function_index],
                    "payload": payloads[function_index],
                    "arrival_ns": now_ns,
                },
            )
            yield request
