"""Sharded fleet execution: one logical fleet across many OS processes.

A single-process fleet run is bounded by one Python interpreter; this module
splits a fleet's *cards* across worker processes.  A shard is an ordinary
``Fleet.run`` on its card subset: every statistic it keeps is order-free
(integers add, sketches add bucket counts — ``FleetStatistics.totals`` /
``absorb``) and only the schedule digest needs an order.  So each worker
streams its digest lines, the parent merges the streams, and the merged
:class:`~repro.cluster.stats.FleetStatistics` equals — digest, counters, time
totals, percentiles — what a single-process run of the same fleet produces.

Why this is deterministic
-------------------------

1. **Static routing.**  Shards route with
   :class:`~repro.cluster.dispatch.StaticHashPolicy`: a request's card is
   ``crc32(function) % total_cards`` — a pure function of the request.  A
   shard hosting cards ``{1, 3}`` of a 4-card fleet therefore serves exactly
   the requests the single-process fleet would have sent to cards 1 and 3.
   (Dynamic policies such as affinity dispatch consult *other* cards' queues
   and residency and cannot be sharded without cross-process chatter.)

2. **Card-local timelines.**  Under static routing, cards never interact: a
   card's queue, residency, service times and rejections depend only on its
   own request subsequence.  Simulating cards ``{1, 3}`` alone produces
   byte-identical per-card timelines to simulating all four together.

3. **Restartable arrivals.**  Every worker regenerates the full
   :class:`~repro.workloads.multitenant.StreamingFleetTrace` locally (same
   seed, bit-identical stream) and filters it to its own cards' share, so no
   request objects — and no RNG state — ever cross a process boundary.

The merge folds the shards' digest lines into a fresh ``FleetStatistics`` in
the total order ``(at_ns, started_ns, shard, seq)``; a line travels as
``(at_ns, started_ns, line)``, its key and the bytes its shard hashed.  Time
is whole nanoseconds, so two cards *do* complete at the same instant (on 25
of 120 trace seeds of the 4-card, 20 000-request sweep), and the key says
which the single-process kernel ran first: a completion is the ``Timeout``
its worker yielded at ``started_ns``, the kernel dispatches same-instant
entries in the order they were scheduled, so equal-instant completions run in
service-start order.  ``shard, seq`` keep each shard's own order and make the
merge a function of its input.  What the key cannot order is two cards on
different shards that both start **and** complete at the same two instants
(and a rejection or expiry, which has no service start, keys as ``(now,
now)`` and sorts behind its instant's completions): the single-process order
then depends on which worker the kernel resumed first.
:func:`merge_digest_lines` counts those lines (``unordered_merge_ties``; 0 on
every swept seed).  Sharded runs use ``admission_batch=1``: front-door
admission groups are formed over the *global* arrival stream, so a shard —
which sees only its own subset — would coalesce different groups.

Memory: a worker ships its lines at every ``epoch_ns`` horizon, so it holds at
most one epoch of them; the parent merges the streams as they arrive
(:func:`heapq.merge`), reading a shard's next chunk only once it has folded
the last, so it holds one chunk per shard and the pipe buffer is the
back-pressure on a shard that runs ahead.
"""

from __future__ import annotations

import heapq
import multiprocessing
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.cluster.dispatch import StaticHashPolicy
from repro.cluster.stats import FleetStatistics
from repro.sim.clock import as_ns
from repro.workloads.multitenant import FleetRequest

#: Seconds the parent waits for a worker's next message before it calls the
#: worker hung.  No epoch of a pinned cell takes more than a few seconds.
WORKER_SILENCE_S = 300.0
#: A digest line in flight: ``(at_ns, started_ns, line)``.
DigestLine = Tuple[int, int, bytes]


class ShardWorkerError(RuntimeError):
    """A shard worker raised, died or fell silent; the message names it."""


@dataclass(frozen=True)
class ShardedRunConfig:
    """Everything a worker needs to rebuild its shard — plain primitives only.

    The config crosses the process boundary once, at spawn; workers
    reconstruct the bank, tenant mix, trace and fleet locally from it.
    """

    total_cards: int = 4
    requests: int = 10_000
    tenants: int = 3
    skew: float = 1.2
    mean_interarrival_ns: float = 40_000.0
    trace_seed: int = 11
    config_seed: int = 11
    queue_depth: int = 64
    #: Simulated nanoseconds of digest lines a worker ships at a time.
    epoch_ns: int = 50_000_000

    def __post_init__(self) -> None:
        if self.total_cards < 1:
            raise ValueError("total_cards must be at least 1")
        if self.requests < 0:
            raise ValueError("requests cannot be negative")
        if self.epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")


@dataclass
class ShardedRunResult:
    """What :func:`run_sharded` hands back."""

    stats: FleetStatistics
    #: Kernel events dispatched, summed over shards.
    events_dispatched: int = 0
    #: Epochs the shard that ran longest needed (its chunk count).
    epochs: int = 0
    #: Per-card summary rows gathered from the shards (global card order).
    card_summaries: List[dict] = field(default_factory=list)


def partition_cards(total_cards: int, shards: int) -> List[List[int]]:
    """Strided card partition: shard ``w`` hosts ``{w, w+shards, ...}``.

    Striding spreads hash-adjacent home cards across shards; any fixed
    partition would be equally correct (card timelines are independent).
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards > total_cards:
        raise ValueError(f"cannot split {total_cards} cards across {shards} shards")
    return [list(range(worker, total_cards, shards)) for worker in range(shards)]


class ShardTraceView:
    """The sub-stream of a trace homed on one shard's cards.

    Filters by :meth:`StaticHashPolicy.home_index` — the same function the
    shard's dispatch policy applies — so every request the view yields is
    routable and every request it drops belongs to another shard.  Arrival
    timestamps are preserved: a shard's timeline is the global timeline with
    other shards' requests (which its cards never see) removed.
    """

    def __init__(
        self, trace: Iterable[FleetRequest], card_indices: Sequence[int], total_cards: int
    ) -> None:
        self._trace = trace
        self._homes = frozenset(card_indices)
        self._total_cards = total_cards

    def __iter__(self):
        homes = self._homes
        total = self._total_cards
        home_index = StaticHashPolicy.home_index
        # Function names repeat heavily; memoise their home membership.
        memo: Dict[str, bool] = {}
        for request in self._trace:
            function = request.function
            mine = memo.get(function)
            if mine is None:
                mine = home_index(function, total) in homes
                memo[function] = mine
            if mine:
                yield request


def _build_shard_fleet(config: ShardedRunConfig, card_indices: Sequence[int]):
    """Build one shard's fleet plus its filtered trace view."""
    from repro.core.builder import build_fleet
    from repro.core.config import SMALL_CONFIG
    from repro.functions.bank import build_small_bank
    from repro.workloads.multitenant import StreamingFleetTrace, default_tenant_mix

    bank = build_small_bank()
    tenants = default_tenant_mix(bank, tenants=config.tenants, skew=config.skew)
    stream = StreamingFleetTrace(
        bank,
        tenants,
        config.requests,
        mean_interarrival_ns=config.mean_interarrival_ns,
        seed=config.trace_seed,
    )
    fleet = build_fleet(
        cards=len(card_indices),
        config=SMALL_CONFIG.with_overrides(seed=config.config_seed),
        bank=bank,
        policy=StaticHashPolicy(total_cards=config.total_cards),
        queue_depth=config.queue_depth,
        stats_mode="sketch",  # reservoirs cannot merge
        card_indices=list(card_indices),
    )
    view = ShardTraceView(stream, card_indices, config.total_cards)
    return fleet, view


def build_single_process_fleet(config: ShardedRunConfig):
    """The unsharded twin: all cards in one kernel, same static routing.

    Returns ``(fleet, trace)`` ready for ``fleet.run(trace)``.  The digest of
    this run is the reference the sharded merge must reproduce.
    """
    return _build_shard_fleet(config, list(range(config.total_cards)))


def _shard_worker(connection, config: ShardedRunConfig, card_indices: List[int]) -> None:
    """Worker-process body: run one shard, streaming its digest lines.

    One way, worker -> parent: ``("lines", chunk)`` per epoch, sorted by
    ``(at_ns, started_ns)`` — ``run(until_ns=h)`` dispatches everything
    ``<= h``, so no instant straddles two chunks and their concatenation is
    sorted too — then ``("final", snapshot)``, or ``("error", repr)``.
    """
    try:
        fleet, view = _build_shard_fleet(config, card_indices)
        lines = fleet.stats.digest_tap = []
        horizon = epoch_ns = as_ns(config.epoch_ns)
        fleet.run(view, until_ns=horizon)
        while True:
            lines.sort(key=itemgetter(0, 1))
            connection.send(("lines", lines))
            lines.clear()
            if len(fleet.simulator) == 0:
                break
            horizon += epoch_ns
            fleet.simulator.run(until_ns=horizon)
        snapshot = {
            "totals": fleet.stats.totals(),
            "events_dispatched": fleet.simulator.events_dispatched,
            "epochs": horizon // epoch_ns,
            "card_summaries": fleet.card_summaries(),
        }
        connection.send(("final", snapshot))
    except Exception as error:
        connection.send(("error", repr(error)))


def _shard_lines(shard: int, pipe, snapshots: List[dict]) -> Iterator[DigestLine]:
    """One worker's digest lines, a chunk received at a time; its final
    snapshot lands in ``snapshots[shard]``.  Every way a worker can fail
    surfaces here as a :class:`ShardWorkerError`."""
    while True:
        try:
            if not pipe.poll(WORKER_SILENCE_S):
                raise ShardWorkerError(f"shard {shard} sent nothing for {WORKER_SILENCE_S:g} s")
            kind, payload = pipe.recv()
        except (EOFError, OSError) as error:
            raise ShardWorkerError(f"shard {shard} died: {error!r}") from None
        if kind == "error":
            raise ShardWorkerError(f"shard {shard} failed: {payload}")
        if kind == "final":
            snapshots[shard] = payload
            return
        yield from payload


def _tagged(shard: int, stream: Iterable[DigestLine]):
    for at_ns, started_ns, line in stream:
        yield at_ns, started_ns, shard, line


def merge_digest_lines(
    streams: Sequence[Iterable[DigestLine]], merged: FleetStatistics
) -> None:
    """Fold per-shard digest-line streams into *merged*'s schedule digest.

    Each stream is sorted by ``(at_ns, started_ns)``; the fold order is
    ``(at_ns, started_ns, shard, seq)`` (module docstring).  Lines of
    *different* shards with an equal key fold in shard order, which the
    single-process run need not match: ``merged.unordered_merge_ties`` counts
    them.  Lazy: a stream is asked for a line only once its last is folded.
    """
    note = merged._note
    last_at = last_started = last_shard = None
    # Two streams' entries differ at ``shard`` at the latest, so the tuple
    # comparison never reaches the line bytes.
    for at_ns, started_ns, shard, line in heapq.merge(
        *(_tagged(shard, stream) for shard, stream in enumerate(streams))
    ):
        if at_ns == last_at and started_ns == last_started and shard != last_shard:
            merged.unordered_merge_ties += 1
        last_at, last_started, last_shard = at_ns, started_ns, shard
        note(line)


def run_sharded(config: ShardedRunConfig, shards: int) -> ShardedRunResult:
    """Serve *config*'s trace across *shards* worker processes and merge.

    ``stats`` carries the merged schedule digest and the sum of the shards'
    ``totals()``.  A worker that raises, dies or sends nothing for
    ``WORKER_SILENCE_S`` seconds raises :class:`ShardWorkerError` here, and
    the other workers are terminated.
    """
    partitions = partition_cards(config.total_cards, shards)
    workers, pipes = [], []
    for card_indices in partitions:
        parent_end, child_end = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_shard_worker, args=(child_end, config, card_indices), daemon=True
        )
        process.start()
        child_end.close()
        workers.append(process)
        pipes.append(parent_end)

    merged = FleetStatistics(mode="sketch")
    snapshots: List[dict] = [{} for _ in partitions]
    try:
        streams = [_shard_lines(shard, pipe, snapshots) for shard, pipe in enumerate(pipes)]
        merge_digest_lines(streams, merged)
    except BaseException:
        for process in workers:
            process.terminate()
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for process in workers:
            process.join()
    for snapshot in snapshots:
        merged.absorb(snapshot["totals"])

    summaries = [row for snapshot in snapshots for row in snapshot["card_summaries"]]
    summaries.sort(key=lambda row: row["card"])
    return ShardedRunResult(
        stats=merged,
        events_dispatched=sum(snapshot["events_dispatched"] for snapshot in snapshots),
        epochs=max(snapshot["epochs"] for snapshot in snapshots),
        card_summaries=summaries,
    )


__all__ = [
    "ShardTraceView",
    "ShardWorkerError",
    "ShardedRunConfig",
    "ShardedRunResult",
    "build_single_process_fleet",
    "merge_digest_lines",
    "partition_cards",
    "run_sharded",
]
