"""Control-plane orders: OS-level work that flows through the card queues.

An order is a card-queue item that runs itself.  ``Fleet._run_order`` gives
every order the same life::

    work(fleet, card)    generator: the timed card operation
                         (``yield from card.spend(...)``) plus any failure
                         record or hand-off ``put``; returns the order span's
                         attributes
    card.outstanding -= 1
    order.<span> span    recorded when the fleet is traced
    settle(fleet, card)  bookkeeping after the span: completion records and
                         the next phase's ``put``

so the fleet knows nothing about what an order does, and a new kind of
control-plane work is one class here (``docs/architecture.md`` has the
recipe).  A migration is three orders chained through two queues:
:class:`MigrateOrder` (source captures) -> :class:`RestoreOrder` (destination
restores) -> :class:`ReleaseOrder` (source evicts its copy).
"""

from __future__ import annotations

from typing import Optional

from repro.obs import names as _obs_names


class Order:
    """Base class of every control-plane queue item."""

    __slots__ = ()

    #: Name of the ``order.*`` span one run of this order records.
    span: str

    def work(self, fleet, card):
        """Spend card time (a generator); returns the span attributes."""
        raise NotImplementedError

    def settle(self, fleet, card) -> None:
        """Bookkeeping after the slot is released and the span recorded."""


class ScrubOrder(Order):
    """Run one readback-scrub window."""

    __slots__ = ("frames",)
    span = _obs_names.SPAN_ORDER_SCRUB

    def __init__(self, frames: Optional[int]) -> None:
        self.frames = frames

    def work(self, fleet, card):
        scrubber = card.driver.coprocessor.scrubber
        if card.health != "down" and scrubber is not None:
            _, error = yield from card.spend(scrubber.scrub_pass, self.frames)
            if error is not None:
                raise error
        return {}

    def settle(self, fleet, card) -> None:
        card.pending.discard(ScrubOrder)


class DefragOrder(Order):
    """Run one bounded defragmentation pass."""

    __slots__ = ("max_moves",)
    span = _obs_names.SPAN_ORDER_DEFRAG

    def __init__(self, max_moves: Optional[int]) -> None:
        self.max_moves = max_moves

    def work(self, fleet, card):
        if card.health != "down":
            # A pass that fails mid-way leaves every function intact where it
            # was; the compaction time already spent is still charged.
            yield from card.spend(card.driver.defrag_card, self.max_moves or 0)
        return {}

    def settle(self, fleet, card) -> None:
        card.pending.discard(DefragOrder)


class HealOrder(Order):
    """Re-resident-ize a dead card's function (best effort: a refused
    preload costs its card time and the function stays cold)."""

    __slots__ = ("function", "killed_at_ns", "healed")
    span = _obs_names.SPAN_ORDER_HEAL

    def __init__(self, function: str, killed_at_ns: int) -> None:
        self.function = function
        self.killed_at_ns = killed_at_ns
        self.healed = False

    def work(self, fleet, card):
        if card.health != "down":
            _, error = yield from card.spend(card.driver.preload, self.function)
            self.healed = error is None
        return {"function": self.function, "healed": self.healed}

    def settle(self, fleet, card) -> None:
        if self.healed:
            fleet.stats.record_heal(
                self.function, card.name, self.killed_at_ns, fleet.clock.now
            )


class MigrateOrder(Order):
    """Source side: capture a function and hand the image to the destination."""

    __slots__ = ("function", "dest_index", "ordered_ns", "handed_off")
    span = _obs_names.SPAN_ORDER_MIGRATE_CAPTURE

    def __init__(self, function: str, dest_index: int, ordered_ns: int) -> None:
        self.function = function
        self.dest_index = dest_index
        self.ordered_ns = ordered_ns
        self.handed_off = False

    def work(self, fleet, card):
        function = self.function
        failed = fleet.stats.record_migration_failed
        if not card.holds(function):
            failed(function, card.name, "source-lost", fleet.clock.now)
        else:
            frames = len(card.driver.coprocessor.device.region_of(function))
            blob, error = yield from card.spend(card.driver.capture_function, function)
            dest = fleet.cards[self.dest_index]
            if error is not None:
                failed(function, card.name, "capture-failed", fleet.clock.now)
            elif dest.health == "down":
                failed(function, dest.name, "dest-down", fleet.clock.now)
            else:
                fleet._enqueue(
                    dest,
                    RestoreOrder(function, blob, card.index, frames, self.ordered_ns),
                )
                self.handed_off = True
        return {"function": function, "handed_off": self.handed_off}

    def settle(self, fleet, card) -> None:
        if not self.handed_off:
            fleet.migrating.discard(self.function)


class RestoreOrder(Order):
    """Destination side: restore a captured image, then release the source."""

    __slots__ = ("function", "blob", "source_index", "frames", "ordered_ns", "restored")
    span = _obs_names.SPAN_ORDER_MIGRATE_RESTORE

    def __init__(
        self,
        function: str,
        blob: bytes,
        source_index: int,
        frames: int,
        ordered_ns: int,
    ) -> None:
        self.function = function
        self.blob = blob
        self.source_index = source_index
        self.frames = frames
        self.ordered_ns = ordered_ns
        self.restored = False

    def work(self, fleet, card):
        function = self.function
        failed = fleet.stats.record_migration_failed
        if card.health == "down":
            failed(function, card.name, "dest-died", fleet.clock.now)
        else:
            # A failed transfer or full fabric here costs time, not service: the
            # function is still resident (and serving) on the source.
            _, error = yield from card.spend(
                card.driver.restore_function, function, self.blob
            )
            if error is not None:
                failed(function, card.name, "restore-failed", fleet.clock.now)
            self.restored = error is None
        return {"function": function, "restored": self.restored}

    def settle(self, fleet, card) -> None:
        function = self.function
        if not self.restored:
            fleet.migrating.discard(function)
            return
        release = ReleaseOrder(
            function,
            card.name,
            len(self.blob),
            self.frames,
            self.ordered_ns,
            blob_matches_readback(card, function, self.blob),
        )
        source = fleet.cards[self.source_index]
        if source.holds(function):
            fleet._enqueue(source, release)
        else:
            # The source died (or already lost the frames) while the image
            # was in flight — the restore itself completes the migration;
            # there is nothing left to release.
            release.settle(fleet, source)


class ReleaseOrder(Order):
    """Source side: evict the migrated function and record the migration."""

    __slots__ = ("function", "dest_name", "blob_bytes", "frames", "ordered_ns", "byte_identical")
    span = _obs_names.SPAN_ORDER_MIGRATE_RELEASE

    def __init__(
        self,
        function: str,
        dest_name: str,
        blob_bytes: int,
        frames: int,
        ordered_ns: int,
        byte_identical: bool,
    ) -> None:
        self.function = function
        self.dest_name = dest_name
        self.blob_bytes = blob_bytes
        self.frames = frames
        self.ordered_ns = ordered_ns
        self.byte_identical = byte_identical

    def work(self, fleet, card):
        function = self.function
        if card.holds(function):
            _, error = yield from card.spend(card.driver.evict, function)
            if error is not None:
                raise error
        return {"function": function}

    def settle(self, fleet, card) -> None:
        fleet.migrating.discard(self.function)
        fleet.stats.record_migration(
            self.function,
            card.name,
            self.dest_name,
            self.ordered_ns,
            fleet.clock.now,
            self.frames,
            self.blob_bytes,
            self.byte_identical,
        )


def blob_matches_readback(card, function: str, blob: bytes) -> bool:
    """Does *card*'s live readback of *function* match the migration blob?

    Host-side verification (no simulated time): decompress the blob and
    compare against the destination's configuration readback.  Any
    mismatch is a migration-induced byte diff — the safety property the
    rebalance experiments assert stays at zero.
    """
    from repro.bitstream.format import parse_bitstream
    from repro.bitstream.window import CompressedImage, WindowedDecompressor

    image = CompressedImage.from_bytes(blob)
    bitstream = parse_bitstream(WindowedDecompressor(image).decompress_all())
    return card.driver.coprocessor.device.verify_readback(function, bitstream)
