"""Sharded fleet execution: one logical fleet across many OS processes.

A single-process fleet run is bounded by one Python interpreter.  This module
splits a fleet's *cards* across worker processes, runs the shards in lockstep
simulated-time epochs, and merges their completion/rejection streams into one
:class:`~repro.cluster.stats.FleetStatistics` whose schedule digest equals the
digest a single-process run of the same fleet produces.

Why this is deterministic
-------------------------

Three properties carry the argument:

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

The merge replays the per-shard record logs into a fresh
``FleetStatistics`` in the total order ``(completed_ns, started_ns, shard,
seq)``.  Time is whole nanoseconds, so two cards *do* complete at the same
instant (on 25 of 120 trace seeds of the 4-card, 20 000-request sweep), and
the key says which the single-process kernel ran first: a completion is the
``Timeout`` its worker yielded at ``started_ns``, the kernel dispatches
same-instant entries in the order they were scheduled, so equal-instant
completions run in service-start order.  ``shard, seq`` keep each shard's own
order and make the merge a function of its input.  What the key cannot
order is two cards on different shards that both start **and** complete at
the same two instants (and a rejection, which has no service start and sorts
behind its instant's completions): the single-process order then depends on
which worker the kernel resumed first.  :func:`merge_shard_records` counts
those records (``stats.unordered_merge_ties``; 0 on every swept seed) and ROADMAP
open item 3b, whose rewrite owns the merge, inherits them.  Sharded runs use
``admission_batch=1``: front-door admission groups are formed over the
*global* arrival stream, so a shard — which sees only its own subset — would
coalesce different groups.

Epochs bound each *worker's* memory, not the parent's and not correctness:
a worker pauses at every epoch horizon and ships its drained record log, so
it never holds more than one epoch of records.  The parent appends every
epoch's records to a per-shard list and sorts the concatenation once at the
end (:func:`merge_shard_records`), so it holds O(records in the whole run).
ROADMAP open item 3b replaces this with free-running workers and a streaming
k-way merge, which is what would make the parent O(records per epoch).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.dispatch import StaticHashPolicy
from repro.cluster.stats import FleetStatistics


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
    stats_mode: str = "sketch"
    #: Lockstep epoch width in simulated nanoseconds.
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
    shards: int
    #: Global card indices hosted by each shard.
    partitions: List[List[int]]
    #: Per-shard ``Fleet.fingerprint()`` tuples (shard-local digests).
    shard_fingerprints: List[tuple]
    #: Kernel events dispatched, summed over shards.
    events_dispatched: int = 0
    #: Lockstep epochs executed.
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
        raise ValueError(
            f"cannot split {total_cards} cards across {shards} shards"
        )
    return [list(range(worker, total_cards, shards)) for worker in range(shards)]


class ShardTraceView:
    """The sub-stream of a trace homed on one shard's cards.

    Filters by :meth:`StaticHashPolicy.home_index` — the same function the
    shard's dispatch policy applies — so every request the view yields is
    routable and every request it drops belongs to another shard.  Arrival
    timestamps are preserved: a shard's timeline is the global timeline with
    other shards' requests (which its cards never see) removed.
    """

    def __init__(self, trace, card_indices: Sequence[int], total_cards: int) -> None:
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
        stats_mode=config.stats_mode,
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
    """Worker-process body: serve one shard in lockstep epochs.

    Protocol (parent -> worker / worker -> parent):

    * ``("advance", horizon_ns)`` -> ``("epoch", records, done)``
    * ``("finish",)``             -> ``("final", records, snapshot)``

    Any exception is shipped back as ``("error", repr)`` so the parent can
    fail loudly instead of deadlocking on a dead pipe.
    """
    try:
        fleet, view = _build_shard_fleet(config, card_indices)
        fleet.stats.enable_record_log()
        started = False
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "advance":
                horizon = message[1]
                if not started:
                    fleet.run(view, until_ns=horizon)
                    started = True
                else:
                    fleet.simulator.run(until_ns=horizon)
                records = fleet.stats.drain_record_log()
                done = (
                    fleet._arrivals_process is not None
                    and fleet._arrivals_process.finished
                    and len(fleet.simulator.queue) == 0
                )
                connection.send(("epoch", records, done))
            elif kind == "finish":
                if not started:
                    fleet.run(view)
                else:
                    fleet.simulator.run()
                records = fleet.stats.drain_record_log()
                stats = fleet.stats
                snapshot = {
                    "fingerprint": fleet.fingerprint(),
                    "events_dispatched": fleet.simulator.events_dispatched,
                    "arrivals": stats.arrivals,
                    "per_tenant_arrivals": dict(stats.per_tenant_arrivals),
                    "first_arrival_ns": stats.first_arrival_ns,
                    "dispatched": stats.dispatched,
                    "per_tenant_dispatched": dict(stats.per_tenant_dispatched),
                    "per_card_dispatched": dict(stats.per_card_dispatched),
                    "card_summaries": fleet.card_summaries(),
                }
                connection.send(("final", records, snapshot))
                return
            else:
                raise ValueError(f"unknown shard command {kind!r}")
    except Exception as error:  # pragma: no cover - worker crash path
        try:
            connection.send(("error", repr(error)))
        finally:
            connection.close()


def merge_shard_records(
    shard_records: Sequence[Sequence[tuple]],
    mode: str = "sketch",
    sketch_relative_error: float = 0.01,
) -> FleetStatistics:
    """Replay per-shard record logs into one ``FleetStatistics``.

    The order is ``(completed_ns, started_ns, shard, seq)``: a stable sort by
    the first two over the shard-by-shard concatenation.  Same-instant
    completions replay in service-start order, which is the order the
    single-process kernel dispatched them in; a rejection sorts behind the
    completions of its instant.  Records of *different* shards with an equal
    ``(completed_ns, started_ns)`` are replayed in shard order, which the
    single-process run need not match — they are counted in the returned
    statistics' ``unordered_merge_ties``.
    """
    decorated: List[Tuple[Tuple[int, int], int, tuple]] = []
    for shard_id, records in enumerate(shard_records):
        for record in records:
            # record[7] is a completion's started_ns.
            started_ns = record[7] if record[0] == "done" else record[1]
            decorated.append(((record[1], started_ns), shard_id, record))
    decorated.sort(key=lambda row: row[0])
    merged = FleetStatistics(mode=mode, sketch_relative_error=sketch_relative_error)
    record_completion = merged.record_completion
    record_rejection = merged.record_rejection
    previous_key = previous_shard = None
    for key, shard_id, record in decorated:
        if key == previous_key and shard_id != previous_shard:
            merged.unordered_merge_ties += 1
        previous_key, previous_shard = key, shard_id
        if record[0] == "done":
            (_, completed_ns, tenant, function, card_name,
             hit, arrival_ns, started_ns, hazard) = record
            record_completion(
                tenant, function, card_name, hit,
                arrival_ns, started_ns, completed_ns, hazard,
            )
        else:
            _, now_ns, tenant, function = record
            record_rejection(tenant, function, now_ns)
    return merged


def run_sharded(
    config: ShardedRunConfig,
    shards: int,
    max_epochs: int = 1_000_000,
    mp_context: Optional[str] = None,
) -> ShardedRunResult:
    """Serve *config*'s trace across *shards* worker processes and merge.

    The merged ``stats`` carries the replayed completion/rejection stream
    (schedule digest, sojourn sketches, completion counters) plus the
    arrival/dispatch counters overlaid from the shard snapshots — integer
    sums, so they equal the single-process run's exactly.
    """
    partitions = partition_cards(config.total_cards, shards)
    context = (
        multiprocessing.get_context(mp_context)
        if mp_context is not None
        else multiprocessing.get_context()
    )
    workers = []
    pipes = []
    for card_indices in partitions:
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_shard_worker,
            args=(child_end, config, card_indices),
            daemon=True,
        )
        process.start()
        child_end.close()
        workers.append(process)
        pipes.append(parent_end)

    shard_streams: List[List[tuple]] = [[] for _ in partitions]
    snapshots: List[Optional[dict]] = [None] * len(partitions)
    epochs = 0
    try:
        # Lockstep epochs: every shard advances to the same simulated-time
        # horizon, then the parent collects the epoch's records.
        while True:
            epochs += 1
            if epochs > max_epochs:
                raise RuntimeError(
                    f"sharded run did not drain within {max_epochs} epochs"
                )
            horizon = epochs * config.epoch_ns
            for pipe in pipes:
                pipe.send(("advance", horizon))
            all_done = True
            for shard_id, pipe in enumerate(pipes):
                reply = pipe.recv()
                if reply[0] == "error":
                    raise RuntimeError(f"shard {shard_id} failed: {reply[1]}")
                _, records, done = reply
                shard_streams[shard_id].extend(records)
                all_done = all_done and done
            if all_done:
                break
        for pipe in pipes:
            pipe.send(("finish",))
        for shard_id, pipe in enumerate(pipes):
            reply = pipe.recv()
            if reply[0] == "error":
                raise RuntimeError(f"shard {shard_id} failed: {reply[1]}")
            _, records, snapshot = reply
            shard_streams[shard_id].extend(records)
            snapshots[shard_id] = snapshot
    finally:
        for pipe in pipes:
            pipe.close()
        for process in workers:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join()

    merged = merge_shard_records(shard_streams, mode=config.stats_mode)
    # Arrival/dispatch attribution happens shard-locally (each request is
    # admitted by exactly one shard), so the global counters are plain sums.
    first_arrivals = []
    for snapshot in snapshots:
        assert snapshot is not None
        merged.arrivals += snapshot["arrivals"]
        merged.dispatched += snapshot["dispatched"]
        for tenant, count in snapshot["per_tenant_arrivals"].items():
            merged.per_tenant_arrivals[tenant] += count
        for tenant, count in snapshot["per_tenant_dispatched"].items():
            merged.per_tenant_dispatched[tenant] += count
        for card, count in snapshot["per_card_dispatched"].items():
            merged.per_card_dispatched[card] += count
        if snapshot["first_arrival_ns"] is not None:
            first_arrivals.append(snapshot["first_arrival_ns"])
    if first_arrivals:
        merged.first_arrival_ns = min(first_arrivals)

    summaries = [
        row
        for snapshot in snapshots
        if snapshot is not None
        for row in snapshot["card_summaries"]
    ]
    summaries.sort(key=lambda row: row["card"])
    return ShardedRunResult(
        stats=merged,
        shards=shards,
        partitions=partitions,
        shard_fingerprints=[
            snapshot["fingerprint"] for snapshot in snapshots if snapshot is not None
        ],
        events_dispatched=sum(
            snapshot["events_dispatched"] for snapshot in snapshots if snapshot is not None
        ),
        epochs=epochs,
        card_summaries=summaries,
    )


__all__ = [
    "ShardTraceView",
    "ShardedRunConfig",
    "ShardedRunResult",
    "build_single_process_fleet",
    "merge_shard_records",
    "partition_cards",
    "run_sharded",
]
