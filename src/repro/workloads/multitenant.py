"""Multi-tenant open-arrival workloads for fleet-scale simulation.

The single-card trace generators in :mod:`repro.workloads.generators` model a
closed loop: one host, one request at a time.  The fleet layer
(:mod:`repro.cluster`) instead serves an *open* arrival stream — requests from
many tenants arrive on their own schedule whether or not earlier ones have
finished, queue at the dispatcher and are routed to cards.

A :class:`FleetRequest` therefore carries an **absolute** arrival time and a
tenant label on top of the usual function/payload pair, and a
:class:`FleetTrace` keeps the requests sorted by arrival.  Tenants are
described by :class:`TenantSpec`: each sends an equal share of the traffic
and has its own function mix (Zipf-skewed, phased or uniform over its
function subset, drawn by a
:class:`~repro.workloads.generators.FunctionChooser`) and its own
deterministic sub-stream of randomness, so the same seed reproduces the same
trace byte for byte across processes.

One loop, :func:`_arrivals`, generates every open-arrival request:
:func:`multi_tenant_trace` materialises it into a :class:`FleetTrace`, and
:class:`StreamingFleetTrace` replays it lazily for runs too long to hold.

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
from dataclasses import dataclass
from itertools import accumulate, repeat, takewhile
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.functions.bank import FunctionBank
from repro.sim.rand import SeededRandom
from repro.workloads.generators import FunctionChooser


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
    #: pre-deadline schedule digest byte-identical; the generated requests of
    #: :func:`_arrivals` are built without the field and read this
    #: class-level ``None``.)
    deadline_ns: Optional[int] = None


class FleetTrace:
    """An arrival-ordered sequence of :class:`FleetRequest`."""

    def __init__(self, requests: Sequence[FleetRequest], name: str = "fleet-trace") -> None:
        self.name = name
        self._requests = sorted(requests, key=lambda request: request.arrival_ns)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[FleetRequest]:
        return iter(self._requests)

    @property
    def duration_ns(self) -> int:
        """Arrival time of the last request (0 for an empty trace)."""
        return self._requests[-1].arrival_ns if self._requests else 0


@dataclass(frozen=True)
class TenantSpec:
    """How one tenant behaves.

    ``mix`` selects the per-tenant function-popularity model:

    * ``"zipf"``  — Zipf-skewed popularity with exponent ``skew`` over the
      tenant's function list, rotated by ``rank_offset`` so different tenants
      are hot on different functions;
    * ``"phased"`` — the tenant's active working set of functions changes
      every so many of its own requests (the chooser's defaults);
    * ``"uniform"`` — every function equally likely.
    """

    name: str
    mix: str = "zipf"
    skew: float = 1.2
    functions: Optional[Tuple[str, ...]] = None
    rank_offset: int = 0

    def __post_init__(self) -> None:
        if self.functions is not None and not self.functions:
            raise ValueError("a tenant's function list cannot be empty")
        if self.mix not in ("zipf", "phased", "uniform"):
            raise ValueError(f"unknown tenant mix {self.mix!r}")


def default_tenant_mix(
    bank: FunctionBank,
    tenants: int = 4,
    skew: float = 1.2,
    functions: Optional[Sequence[str]] = None,
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
        )
        for index in range(tenants)
    ]


def _check_stream(tenants: Sequence[TenantSpec], length: int, mean_interarrival_ns: float) -> None:
    if not tenants:
        raise ValueError("need at least one tenant")
    if length < 0:
        raise ValueError("trace length cannot be negative")
    if mean_interarrival_ns <= 0:
        raise ValueError("the mean inter-arrival time must be positive")


def _arrivals(
    bank: FunctionBank,
    tenants: Sequence[TenantSpec],
    length: int,
    mean_interarrival_ns: float,
    seed: int,
) -> Iterator[FleetRequest]:
    """The open-arrival loop: *length* requests from *tenants*.

    Per request: one arrival gap, one ``random()`` for the tenant (matched
    against the equal shares' running sums), then the tenant's chooser.  Each
    gap is ``-log(1 - random()) / lambd``, which is ``expovariate(lambd)`` to the
    bit, with ``lambd = 1 / mean_interarrival_ns`` throughout.  A Zipf
    tenant's draw is inlined rather than a ``next_index()`` call: the
    streaming fleet workloads generate inside their timed run, where a
    Python call per request is a measurable share of the cost.
    """
    root = SeededRandom(seed)
    arrival_random = root.fork("arrivals").random
    tenant_random = root.fork("tenant-choice").random
    draws = []
    for spec in tenants:
        names = list(spec.functions) if spec.functions is not None else bank.names()
        # Rotate the popularity ranking so rank_offset decides which function
        # this tenant hammers hardest.
        offset = spec.rank_offset % len(names)
        chooser = FunctionChooser(
            bank, names[offset:] + names[:offset], root.fork(f"tenant:{spec.name}"), spec.mix, spec.skew
        )
        draws.append((spec.name, chooser.names, chooser.payloads, chooser.cumulative,
                      chooser.total, chooser.random, chooser.next_index))
    # Every tenant sends an equal share: running sums of 1 / len(tenants).
    cumulative = list(accumulate(1.0 / len(tenants) for _ in tenants))
    last_tenant = len(cumulative) - 1
    rates = repeat(1.0 / mean_interarrival_ns, length)
    log = math.log
    # The frozen dataclass's __init__ costs ~2x these four object.__setattr__
    # calls.  Installing one fresh __dict__ instead would be ~0.2 us faster
    # per request, but on CPython 3.11 it leaves each request at ~280 bytes
    # instead of the class's shared-key ~150: +13 % peak RSS on a
    # 50k-request materialised trace.
    new = FleetRequest.__new__
    set_attr = object.__setattr__
    now_ns = 0
    for lambd in rates:
        now_ns += round(-log(1.0 - arrival_random()) / lambd)
        index = bisect_left(cumulative, tenant_random())
        if index > last_tenant:  # beyond the last edge (rounding)
            index = last_tenant
        tenant, names, payloads, zipf_cumulative, zipf_total, zipf_random, next_index = draws[index]
        if zipf_cumulative is None:
            function = next_index()
        else:
            function = bisect_left(zipf_cumulative, zipf_total * zipf_random())
        request = new(FleetRequest)
        set_attr(request, "tenant", tenant)
        set_attr(request, "function", names[function])
        set_attr(request, "payload", payloads[function])
        set_attr(request, "arrival_ns", now_ns)
        yield request


def multi_tenant_trace(
    bank: FunctionBank,
    tenants: Sequence[TenantSpec],
    length: int,
    mean_interarrival_ns: float = 50_000.0,
    seed: int = 0,
    name: Optional[str] = None,
    duration_ns: Optional[int] = None,
) -> FleetTrace:
    """An open-arrival request stream interleaving several tenants.

    Arrivals are Poisson: i.i.d. exponential inter-arrival gaps with mean
    ``mean_interarrival_ns`` (the classic open-system assumption).  Each
    arrival picks a tenant (every one equally likely), then the tenant's own
    stream picks the function and payload.  Everything derives from *seed*
    through :meth:`SeededRandom.fork`, so traces are byte-reproducible.

    ``duration_ns`` switches to duration-bounded generation: arrivals stop at
    the first one past the horizon instead of after a fixed count (*length*
    then acts as a hard safety cap).  Reliability experiments (E10) think in
    exposure time — fault processes are rates per second of simulated time —
    so their traces are sized in seconds, not requests.  For the same seed,
    the arrivals a duration-bounded trace shares with the count-bounded one
    are byte-identical (the draw order does not change).
    """
    _check_stream(tenants, length, mean_interarrival_ns)
    if duration_ns is not None and duration_ns < 0:
        raise ValueError("trace duration cannot be negative")
    requests = _arrivals(bank, tenants, length, mean_interarrival_ns, seed)
    if duration_ns is not None:
        requests = takewhile(lambda request: request.arrival_ns <= duration_ns, requests)
    label = name or f"multitenant-poisson-{len(tenants)}t-{length}"
    return FleetTrace(list(requests), name=label)


class StreamingFleetTrace:
    """An O(1)-memory, restartable multi-tenant arrival stream.

    The same loop as :func:`multi_tenant_trace` for the same parameters, so
    the two yield equal requests (``tests/test_workload_pins.py`` asserts
    it), with two properties a million-request run needs:

    * **Streaming** — requests are produced as the fleet consumes them; no
      10^6-element list is ever materialised.  Memory is O(tenants).
    * **Restartable** — every ``__iter__`` call replays the byte-identical
      stream from the start.  The sharded runner leans on this: each worker
      process regenerates the same stream locally and serves only its own
      cards' share, so no request objects ever cross a process boundary.
    """

    def __init__(
        self,
        bank: FunctionBank,
        tenants: Sequence[TenantSpec],
        length: int,
        mean_interarrival_ns: float = 50_000.0,
        seed: int = 0,
    ) -> None:
        _check_stream(tenants, length, mean_interarrival_ns)
        self.bank = bank
        self.tenants = list(tenants)
        self.length = length
        self.mean_interarrival_ns = mean_interarrival_ns
        self.seed = seed
        self.name = f"multitenant-stream-{len(tenants)}t-{length}"

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[FleetRequest]:
        return _arrivals(self.bank, self.tenants, self.length, self.mean_interarrival_ns, self.seed)
