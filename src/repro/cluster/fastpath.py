"""Hit fast path: record/replay of a card's resident-hit serve.

A hit spends most of its wall time in the host's bus transactions and the
card's work behind the COMMAND write — decode, residency check, RAM and
interface-bus timing, the fabric run (``tests/test_core_card_host.py::
TestHostCallWork`` counts its frames; the ``pci`` / ``mcu`` / ``core`` rows of
``benchmarks/e2e/run.py --workload fleet_hit_default --trace 1`` are the
profiler) — all of it a *pure function of (function, input length) and the
card's resident state*.  A hit's time is a sum over the input length, the
output length and the fabric cycles, and every bank function's output length
and cycles read its input's length, never its bytes
(``tests/test_cluster_fastpath.py::TestReplayKey`` fails for a function whose
timing starts reading its data).  A fleet serve hands back only its time and
whether it hit.  So once a function is resident and healthy, serving any
payload of a length it served before takes the same time and does the same
things at the same offsets from its start.

:class:`ServeMemo` exploits that.  The first resident-hit serve of a
``(function, input length)`` key runs the real path — with ``MiniOs.touch``
and ``TraceRecorder.record`` shadowed for that one call, so the memo sees
when the replacement table was touched and which device events the card's
recorder was handed — and stores the serve as *offsets from its start*: the
duration, the touch and event offsets, and the deltas of the three bus
counters someone reads.  Time is whole nanoseconds (:mod:`repro.sim.clock`),
so ``start + duration_ns`` *is* where the real path's chain of advances
lands.  Every later serve of the key *replays* the entry: the card clock
jumps by the duration, the LRU table is touched at ``start + offset``, the
bus counters move by the recorded deltas, and the card's request counters
move through ``CoprocessorStatistics.record_hit_replay``.

Traced replay: under a fleet that bridges device events into ``card.*``
spans, a replay builds no event at all — it leaves the entry's own immutable
``events`` tuple on ``FleetCard.device_events`` with how many of them the
device recorder's ``capacity`` admits (the rest charged to ``dropped``) and
the one thing that is not a function of the key: the live
``mcu.requests_handled`` ordinal that completes the RAM staging labels
``in:<n>``/``out:<n>``, stored as their prefixes.  The fleet records that as
one :class:`~repro.obs.context.DeviceSpans` reference, which yields the spans
the full path's events would have become to whoever reads them.  A recorder
someone enabled by hand, on a card no fleet bridges, is read as a device log:
that selects the full model, like any other observer of the card.

Exactness contract (``tests/test_cluster_fastpath.py``, against the same
fleet with every ``card.memo`` set to ``None``): card clock trajectory,
service times, fleet schedule digest, every counter the model keeps, every
time total (``bus.busy_time_ns``, ``copro.stats.total_reconfig_ns``),
LRU/residency state, minios statistics and device events are **equal** to a
memo-off run.

Every fleet card carries a memo; :meth:`ServeMemo._safe` decides per request,
from the card's observable regime, which path serves it.  The memo is
consulted only while the card is plainly serving — function resident, no
scrub-on-execute, no frame of the function's region in the configuration
memory's ``suspect`` set and no device recorder enabled outside a bridging
fleet.  (A down card serves nothing: the fleet fails its requests over.)  A
fault-protected card replays too: its periodic scrub runs in a scrub order,
never inside a serve, and its hazard detector counts nothing on a region with
no suspect frame.  An upset in the region or an eviction of the function
selects the real, fully-modelled path for that request.

A card's memo holds one entry per (function, input length) the card has
served as a clean hit, whatever the payloads' bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

# A memo entry is a flat tuple, unpacked in one bytecode on the replay hot
# path (``ServeMemo.replay`` names the fields).  ``touches`` is ``((name,
# offset_ns), ...)`` and ``events`` is ``((component, action, start_offset_ns,
# end_offset_ns, attributes, label_prefix), ...)``; offsets count from the
# card clock at the call.
_MemoEntry = tuple


def drain_device_events(recorder, start_ns: int) -> tuple:
    """Empty a bridged device *recorder* after a fully modelled serve.

    Returns what a replay leaves on ``FleetCard.device_events`` —
    ``(events, count, ordinal)`` — with the events the recorder's
    ``capacity`` admitted re-based on the serve's start, the form a memo
    entry keeps them in (labels already rendered: no prefix, no ordinal).
    """
    recorded = recorder.events
    events = tuple(
        (e.component, e.action, e.start_ns - start_ns, e.end_ns - start_ns, e.attributes, None)
        for e in recorded
    )
    del recorded[:]
    return events, len(events), 0


class ServeMemo:
    """Per-card record/replay cache keyed by ``(function, len(payload))``."""

    def __init__(self, fleet_card) -> None:
        self.fleet_card = fleet_card
        driver = fleet_card.driver
        self.driver = driver
        self.clock = driver.clock
        self.bus = driver.bus
        self.copro = driver.coprocessor
        self.mcu = self.copro.mcu
        self.minios = self.mcu.minios
        self.device = self.copro.device
        self._entries: Dict[Tuple[str, int], _MemoEntry] = {}
        # Hot-path bindings (all created once per card, never replaced; the
        # bound containers — replacement table, loaded-function dict, suspect
        # frame set — are mutated in place, never reassigned).  The two
        # statistics objects are *not* bound here: a card RESET replaces
        # them.  ``copro.trace`` is the card's one device recorder (bus, MCU,
        # ROM, RAM and fabric).
        self._recorder = self.copro.trace
        self._is_resident = self.minios.table.__contains__
        self._minios_touch = self.minios.table.touch
        self._loaded_get = self.device._loaded.get
        self._table_entry = self.minios.table.entry
        self._suspect = self.device.memory.suspect
        self.replays = 0

    # ---------------------------------------------------------------- gating
    def _safe(self, function: str) -> bool:
        """True when the card is in the plain regime a memo entry models."""
        suspect = self._suspect
        return (
            not self.mcu.scrub_on_execute
            and self._is_resident(function)
            and (not suspect or suspect.isdisjoint(self._table_entry(function).region))
            and (not self._recorder.enabled or self.fleet_card._obs_trace is not None)
        )

    # -------------------------------------------------------------- recording
    def _totals(self) -> tuple:
        """The bus counters a serve moves, in entry order."""
        bus = self.bus
        return (bus.busy_time_ns, bus.transactions_completed, bus.bytes_transferred)

    def record_call(self, function: str, payload: bytes):
        """Run the real serve path while capturing what it did, and when.

        Returns the driver's :class:`HostCallResult`; stores a memo entry
        only when the call was a clean hit (no evictions).
        """
        clock = self.clock
        minios = self.minios
        recorder = self._recorder
        start_ns = clock.now
        touches: List[Tuple[str, int]] = []
        events: List[tuple] = []
        ordinal = self.mcu.requests_handled
        staging_labels = {f"in:{ordinal}": "in:", f"out:{ordinal}": "out:"}
        orig_touch = minios.touch
        orig_record = recorder.record

        def touch(name: str, now_ns: int) -> None:
            touches.append((name, now_ns - start_ns))
            orig_touch(name, now_ns)

        def record(component: str, action: str, start: int, end: int, **attributes):
            # Captured whether or not the recorder is enabled: the call sites
            # hand over the event either way.
            label_prefix = staging_labels.get(attributes.get("label"))
            events.append(
                (component, action, start - start_ns, end - start_ns, attributes, label_prefix)
            )
            return orig_record(component, action, start, end, **attributes)

        before = self._totals()
        # Instance attributes shadow the class methods for exactly one call;
        # deleting them restores the originals even if the call raises.
        minios.touch = touch
        recorder.record = record
        try:
            result = self.driver.call(function, payload)
        finally:
            del minios.touch
            del recorder.record

        card_result = result.card_result
        if card_result.hit and not card_result.evictions:
            self._entries[(function, len(payload))] = (
                clock.now - start_ns,
                tuple(touches),
                tuple(events),
                *(now - was for now, was in zip(self._totals(), before)),
            )
        return result

    # ---------------------------------------------------------------- replay
    def replay(self, function: str, payload: bytes) -> Optional[int]:
        """Replay a recorded hit; returns the service time or ``None``.

        ``None`` means "no usable memo" — the caller must run the real path.
        """
        entry = self._entries.get((function, len(payload)))
        if entry is None or not self._safe(function):
            return None
        (
            duration_ns,
            touches,
            events,
            busy_ns,
            bus_transactions,
            bus_bytes,
        ) = entry

        clock = self.clock
        start = clock._now
        minios_touch = self._minios_touch
        for name, offset_ns in touches:
            minios_touch(name, start + offset_ns)
        clock._now = start + duration_ns
        recorder = self._recorder
        if recorder.enabled:
            # A bridging fleet (``_safe``), whose recorder is empty between
            # serves: hand the events over unbuilt, its bound charged here.
            count = len(events)
            if recorder.capacity is not None and count > recorder.capacity:
                recorder.dropped += count - recorder.capacity
                count = recorder.capacity
            self.fleet_card.device_events = (events, count, self.mcu.requests_handled)

        bus = self.bus
        bus.busy_time_ns += busy_ns
        bus.transactions_completed += bus_transactions
        bus.bytes_transferred += bus_bytes
        self.mcu.requests_handled += 1

        self.minios.stats.hits += 1

        self.device.total_executions += 1
        loaded = self._loaded_get(function)
        if loaded is not None:
            loaded.executions += 1

        self.copro.stats.record_hit_replay(function)

        self.replays += 1
        return duration_ns


__all__ = ["ServeMemo", "drain_device_events"]
