"""Hit fast path: record/replay of a card's resident-hit serve.

Profiling the fleet hot path (``benchmarks/perf_smoke.py --profile``) shows
~70% of wall time inside ``PciBus.submit`` and the module pipeline under it —
seven PCI transactions plus decode/feed/execute/collect per request, all of
which are *pure functions of (function, payload) and the card's resident
state*.  Once a function is resident and healthy, serving the same payload
again performs the exact same operation script, just starting from a later
card-clock position.

:class:`ServeMemo` exploits that: the first resident-hit serve of a
``(function, payload)`` pair runs the real path with thin instance-attribute
wrappers around ``Clock.advance``, ``PciBus.submit``, ``MiniOs.touch``,
``TraceRecorder.record`` and the driver's transfer helpers, recording the
**operation script** — the exact sequence of clock increments, which of them
were bus-busy time, where the replacement-table touch happened, the device
events the card's recorder was handed, and the integer counter deltas.  Every
later serve of the same pair *replays* the script: the clock increments are
folded in recorded order (floating-point addition is performed increment by
increment, so the card clock lands on the bit-identical position the real
path would have produced), the LRU table is touched at the same point in the
timeline, and the stored :class:`RequestOutcome` is re-recorded through
``CoprocessorStatistics.record``.

Traced replay: every record site passes ``started = clock.now`` and
``clock.now``, so both ends of a device event are positions of the increment
sequence.  The script stores them as *indices* into it; when the card's
recorder is enabled, replay appends the same :class:`TraceEvent` objects the
full path would have left, their times read from the replayed positions and
rounded exactly as ``TraceRecorder.record`` rounds, ``capacity``/``dropped``
honoured.  The one attribute that is not a function of ``(function,
payload)`` — the RAM staging label ``in:<n>``/``out:<n>``, numbered by
``mcu.requests_handled`` — is stored as its prefix and rendered from the
ordinal replay increments anyway.  An enabled recorder therefore does not
select the full model.

Why an op script and not a cached duration: float addition does not
reassociate — ``(t + d1) + d2`` differs from ``t + (d1 + d2)`` in the last
bits at some clock positions — so caching the *total* service time would
change schedule digests.  The increment *sequence* of a hit, however, is
invariant in the absolute start time (verified empirically and by
construction: every stage charges cycle counts that depend only on payload
bytes and card geometry), so replaying it is exact.

Exactness contract (asserted by ``tests/test_cluster_fastpath.py`` against
the same fleet with every ``card.memo`` set to ``None``):

* card clock trajectory, service times, fleet schedule digest, all integer
  counters, LRU/residency state, and minios statistics are **bit-identical**
  to a memo-off run;
* the replayed ``RequestOutcome`` duration fields and the driver's
  ``total_pci_ns`` accumulator carry the recorded occurrence's values; the
  real path recomputes them per request as differences of absolute clock
  positions, which can drift in the final ulp.  They feed per-card
  mean/percentile diagnostics only — nothing digested — and the drift is
  bounded by one rounding of each stage duration.

Every fleet card carries a memo; which path serves a request is decided per
request by :meth:`ServeMemo._safe`, from the card's observable regime.  The
memo is consulted only while the card is plainly serving — function
resident, health ``up``, no scrubber, no scrub-on-execute, no hazard
detector and no clock observers.  Any fault machinery or an eviction of the
function selects the real, fully-modelled path for that request.  A pair whose
device events cannot be placed exactly on the increment sequence is never
stored, so it keeps using the full model too.

The cache is bounded: after :data:`MEMO_ENTRY_CAP` distinct
``(function, payload)`` pairs a card stops recording, and pairs without an
entry are served by the full path.  The shipped trace generators pool one
payload per tenant and function, so they stay far below the cap; the bound
is for caller-built traces whose payloads never repeat.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceEvent

#: Most ``(function, payload)`` entries one card's memo retains.
MEMO_ENTRY_CAP = 4096

# A memo entry is a flat tuple (unpacked in one bytecode on the replay hot
# path):  (script, events, busy_addends, pci_addend, result, outcome,
#          input_bytes, bus_transactions, bus_bytes, dma_jobs, dma_bytes,
#          commands_delta, data_in_transfers, data_in_bytes,
#          data_out_transfers, data_out_bytes, output_bytes, total_time_ns,
#          reconfig_time_ns, execute_time_ns, data_movement_ns) — the tail
# five are the precomputed addends ``CoprocessorStatistics.record_hit_replay``
# folds in.  ``script`` is ``((touched_names, increments), ...)`` and
# ``events`` is ``((component, action, start_index, end_index, attributes,
# label_prefix), ...)``; the indices point into the clock positions the
# script's increments produce, position 0 being the clock at the call.
_MemoEntry = tuple


def _start_index(
    positions: Sequence[float], increments: Sequence[float], start_ns: float, end_index: int
) -> Optional[int]:
    """Where *start_ns* sits on the recorded clock positions, if exactly.

    ``None`` when no position at or before *end_index* equals it, or when two
    that do are separated by a non-zero increment (absorbed at this clock
    value, so the tie would not hold from another start time).
    """
    try:
        first = positions.index(start_ns, 0, end_index + 1)
    except ValueError:
        return None
    last = first
    while last < end_index and positions[last + 1] == start_ns:
        last += 1
    if any(increments[first:last]):
        return None
    return first


class ServeMemo:
    """Per-card record/replay cache keyed by ``(function, payload)``."""

    def __init__(self, fleet_card) -> None:
        self.fleet_card = fleet_card
        driver = fleet_card.driver
        self.driver = driver
        self.clock = driver.clock
        self.bus = driver.bus
        self.pci_card = driver.card
        self.copro = driver.coprocessor
        self.mcu = self.copro.mcu
        self.minios = self.mcu.minios
        self.device = self.copro.device
        self._entries: Dict[Tuple[str, bytes], _MemoEntry] = {}
        # Hot-path bindings (all created once per card, never replaced; the
        # bound containers — replacement table, loaded-function dict — are
        # mutated in place, never reassigned).  The two statistics objects
        # are *not* bound here: a card RESET replaces them.
        # The card's one device recorder (bus, MCU, ROM, RAM and fabric all
        # record into it).
        self._recorder = self.copro.trace
        self._is_resident = self.minios.table.__contains__
        self._minios_touch = self.minios.table.touch
        self._dma = driver.bridge.dma
        self._loaded_get = self.device._loaded.get
        self.replays = 0
        self.recordings = 0

    # ---------------------------------------------------------------- gating
    def _safe(self, function: str) -> bool:
        """True when the card is in the plain regime the script models."""
        return (
            self.fleet_card.health == "up"
            and not self.clock._observers
            and self.copro.scrubber is None
            and not self.mcu.scrub_on_execute
            and self.device.hazard_detector is None
            and self._is_resident(function)
        )

    def can_record(self, function: str) -> bool:
        """True when a serve of *function* now would be a recordable hit."""
        return len(self._entries) < MEMO_ENTRY_CAP and self._safe(function)

    # -------------------------------------------------------------- recording
    def record_call(self, function: str, payload: bytes):
        """Run the real serve path while capturing its operation script.

        Returns the driver's :class:`HostCallResult`; stores a memo entry
        only when the call was a clean hit (no evictions) whose device events
        all sit exactly on its clock positions.
        """
        driver = self.driver
        clock = self.clock
        bus = self.bus
        dma = driver.bridge.dma
        minios = self.minios
        data_in = self.mcu.data_in
        data_out = self.mcu.data_out
        recorder = self._recorder

        advances: List[float] = []
        busy_indices: List[int] = []
        touches: List[Tuple[int, str]] = []
        captured: List[tuple] = []
        pci = {}

        orig_advance = clock.advance

        def advance(delta_ns: float) -> None:
            advances.append(delta_ns)
            orig_advance(delta_ns)

        orig_submit = bus.submit

        def submit(transaction):
            # The submit's own busy charge is its first clock advance (routing
            # does not touch the clock); everything after it — device-side
            # work under memory_write, nested DMA submits — charges the clock
            # but NOT this submit's busy time.  The index is appended after
            # the call returns so nested submits land first, matching the
            # real path's completion-order ``busy_time_ns`` accumulation.
            first = len(advances)
            completed = orig_submit(transaction)
            busy_indices.append(first)
            return completed

        orig_touch = minios.touch

        def touch(name: str, now_ns: float) -> None:
            touches.append((len(advances), name))
            orig_touch(name, now_ns)

        orig_record = recorder.record

        def record(component: str, action: str, start_ns: float, end_ns: float, **attributes):
            # Captured whether or not the recorder is enabled: the call sites
            # hand over the event either way.
            captured.append((component, action, start_ns, end_ns, len(advances), attributes))
            return orig_record(component, action, start_ns, end_ns, **attributes)

        orig_write_input = driver._write_input

        def write_input(data: bytes) -> float:
            elapsed = orig_write_input(data)
            pci["in"] = elapsed
            return elapsed

        orig_read_output = driver._read_output

        def read_output(length: int):
            out = orig_read_output(length)
            pci["out"] = out[1]
            return out

        start_ns = clock.now
        ordinal = self.mcu.requests_handled
        counters_before = (
            self.pci_card.commands_processed,
            bus.transactions_completed,
            bus.bytes_transferred,
            dma.jobs_completed,
            dma.bytes_moved,
            data_in.transfers,
            data_in.bytes_transferred,
            data_out.transfers,
            data_out.bytes_transferred,
        )

        # Instance attributes shadow the class methods for exactly one call;
        # deleting them restores the originals even if the call raises.
        clock.advance = advance
        bus.submit = submit
        minios.touch = touch
        recorder.record = record
        driver._write_input = write_input
        driver._read_output = read_output
        try:
            result = driver.call(function, payload)
        finally:
            del clock.advance
            del bus.submit
            del minios.touch
            del recorder.record
            del driver._write_input
            del driver._read_output

        card_result = result.card_result
        if (
            card_result is not None
            and card_result.hit
            and not card_result.evictions
            and "in" in pci
            and "out" in pci
        ):
            # Place each captured device event on the clock positions of the
            # serve — the same left-to-right float additions the clock made.
            positions = list(accumulate(advances, initial=start_ns))
            staging_labels = {f"in:{ordinal}": "in:", f"out:{ordinal}": "out:"}
            events = []
            for component, action, event_start, event_end, end_index, attributes in captured:
                start_index = _start_index(positions, advances, event_start, end_index)
                if start_index is None or event_end != positions[end_index]:
                    return result
                label_prefix = staging_labels.get(attributes.get("label"))
                events.append((component, action, start_index, end_index, attributes, label_prefix))
            # Compile the raw capture into a replay script: segments of clock
            # increments separated by the points where a side effect fires
            # (an LRU touch).
            touched_at: Dict[int, list] = {}
            for idx, name in touches:
                touched_at.setdefault(idx, []).append(name)
            script = []
            prev = 0
            boundaries = sorted(touched_at)
            for i, idx in enumerate(boundaries):
                if idx > prev:
                    script.append(((), tuple(advances[prev:idx])))
                nxt = boundaries[i + 1] if i + 1 < len(boundaries) else len(advances)
                script.append((tuple(touched_at[idx]), tuple(advances[idx:nxt])))
                prev = nxt
            if prev < len(advances):
                script.append(((), tuple(advances[prev:])))
            outcome = card_result.outcome
            self._entries[(function, payload)] = (
                tuple(script),
                tuple(events),
                tuple(advances[i] for i in busy_indices),
                # Same grouping as the driver's ``input_ns + output_ns``;
                # replay folds the recorded occurrence's addend (documented
                # ulp approximation — no consumer digests this accumulator).
                pci["in"] + pci["out"],
                card_result,
                outcome,
                len(payload),
                bus.transactions_completed - counters_before[1],
                bus.bytes_transferred - counters_before[2],
                dma.jobs_completed - counters_before[3],
                dma.bytes_moved - counters_before[4],
                self.pci_card.commands_processed - counters_before[0],
                data_in.transfers - counters_before[5],
                data_in.bytes_transferred - counters_before[6],
                data_out.transfers - counters_before[7],
                data_out.bytes_transferred - counters_before[8],
                len(outcome.output),
                outcome.total_time_ns,
                outcome.reconfig_time_ns,
                outcome.execute_time_ns,
                # Same left-to-right grouping ``CoprocessorStatistics.record``
                # uses, so the precomputed sum is the bit-identical addend.
                (
                    outcome.stage_input_time_ns
                    + outcome.feed_time_ns
                    + outcome.collect_time_ns
                    + outcome.readout_time_ns
                ),
            )
            self.recordings += 1
        return result

    # ---------------------------------------------------------------- replay
    def replay(self, function: str, payload: bytes) -> Optional[float]:
        """Replay a recorded hit; returns the service time or ``None``.

        ``None`` means "no usable memo" — the caller must run the real path.
        """
        entry = self._entries.get((function, payload))
        if entry is None:
            return None
        if not self._safe(function):
            return None
        (
            script,
            events,
            busy_addends,
            pci_addend,
            result,
            outcome,
            input_bytes,
            bus_transactions,
            bus_bytes,
            dma_jobs,
            dma_bytes,
            commands_delta,
            data_in_transfers,
            data_in_bytes,
            data_out_transfers,
            data_out_bytes,
            output_bytes,
            total_time_ns,
            reconfig_time_ns,
            execute_time_ns,
            data_movement_ns,
        ) = entry

        # The clock and the bus-busy total are folded by the same chain of
        # binary float additions the real path performs (``Clock.advance``,
        # ``busy_time_ns +=``), increment by increment.  Not ``sum()``: from
        # CPython 3.12 it compensates float sums and lands on other last bits.
        clock = self.clock
        now = start = clock._now
        minios_touch = self._minios_touch
        recorder = self._recorder
        # With the recorder on, every clock position is kept: the device
        # events are timed from them.
        positions = [now] if recorder.enabled else None
        for names, segment in script:
            for name in names:
                minios_touch(name, now)
            if positions is None:
                for increment in segment:
                    now += increment
            else:
                # ``accumulate`` starts at ``now``, which is the last position.
                positions[-1:] = accumulate(segment, initial=now)
                now = positions[-1]
        clock._now = now
        if positions is not None:
            self._replay_events(events, positions)

        bus = self.bus
        busy_time_ns = bus.busy_time_ns
        for addend in busy_addends:
            busy_time_ns += addend
        bus.busy_time_ns = busy_time_ns
        bus.transactions_completed += bus_transactions
        bus.bytes_transferred += bus_bytes

        driver = self.driver
        driver.calls += 1
        driver.total_pci_ns += pci_addend
        dma = self._dma
        dma.jobs_completed += dma_jobs
        dma.bytes_moved += dma_bytes
        pci_card = self.pci_card
        pci_card.commands_processed += commands_delta
        pci_card.last_result = result

        mcu = self.mcu
        mcu.requests_handled += 1
        if len(mcu.outcomes) < mcu.max_recorded_outcomes:
            mcu.outcomes.append(outcome)
        data_in = mcu.data_in
        data_in.transfers += data_in_transfers
        data_in.bytes_transferred += data_in_bytes
        data_out = mcu.data_out
        data_out.transfers += data_out_transfers
        data_out.bytes_transferred += data_out_bytes

        stats = self.minios.stats
        stats.requests += 1
        stats.hits += 1

        self.device.total_executions += 1
        loaded = self._loaded_get(function)
        if loaded is not None:
            loaded.executions += 1

        self.copro.stats.record_hit_replay(
            outcome,
            function,
            input_bytes,
            output_bytes,
            total_time_ns,
            reconfig_time_ns,
            execute_time_ns,
            data_movement_ns,
        )

        self.replays += 1
        return now - start

    def _replay_events(self, events, positions: List[float]) -> None:
        """Append what ``TraceRecorder.record`` would have, call by call."""
        recorder = self._recorder
        ticks = list(map(round, positions))
        ordinal = self.mcu.requests_handled
        recorded = recorder.events
        capacity = recorder.capacity
        for component, action, start_index, end_index, attributes, label_prefix in events:
            if capacity is not None and len(recorded) >= capacity:
                recorder.dropped += 1
                continue
            attributes = dict(attributes)
            if label_prefix is not None:
                attributes["label"] = f"{label_prefix}{ordinal}"
            recorded.append(
                TraceEvent(component, action, ticks[start_index], ticks[end_index], attributes)
            )

    # ------------------------------------------------------------- reporting
    @property
    def entries(self) -> int:
        return len(self._entries)

    def summary(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "recordings": self.recordings,
            "replays": self.replays,
        }


__all__ = ["MEMO_ENTRY_CAP", "ServeMemo"]
