"""The invariant pack: what must hold after *every* explored schedule.

These are the safety properties the property-test suites already encode —
request conservation (``tests/test_faults_properties.py``), ownership/CRC/
golden lockstep and byte-exact migration (``tests/test_rebalance_properties
.py``), and control-plane counter conservation — lifted into plain functions
so the schedule explorer can assert them after each interleaving instead of
only under the single default schedule.

Every checker returns a list of violation strings (empty = clean) rather
than asserting, so one explored schedule can report all its violations and
the explorer can fold them into the trace record.
"""

from __future__ import annotations

from typing import List


def check_request_conservation(fleet, trace_length: int) -> List[str]:
    """Nothing in flight, nothing dropped: the conservation law.

    Mirrors ``TestKilledCardConservation``: every arrival is completed,
    rejected or expired; no card retains outstanding work; every card is
    idle with its queue drained and no kernel entry still naming it; the
    per-tenant views balance the same way.
    """
    violations: List[str] = []
    stats = fleet.stats
    if stats.arrivals != trace_length:
        violations.append(
            f"arrivals {stats.arrivals} != trace length {trace_length}"
        )
    settled = stats.completed + stats.rejected + stats.expired
    if settled != stats.arrivals:
        violations.append(
            f"completed {stats.completed} + rejected {stats.rejected} + "
            f"expired {stats.expired} != arrivals {stats.arrivals}"
        )
    for card in fleet.cards:
        if card.outstanding != 0:
            violations.append(f"{card.name}: outstanding {card.outstanding} != 0")
        if len(card.queue) != 0:
            violations.append(f"{card.name}: {len(card.queue)} items left queued")
        simulator = fleet.simulator
        named = sum(entry[3] is card for entry in (*simulator._heap, *simulator._fifo))
        if card.busy or named:
            violations.append(
                f"{card.name}: not idle (busy={card.busy}, {named} kernel entries name it)"
            )
    for tenant in stats.tenants():
        arrivals = stats.per_tenant_arrivals.get(tenant, 0)
        done = stats.per_tenant_completed.get(tenant, 0)
        rejected = stats.per_tenant_rejected.get(tenant, 0)
        expired = stats.per_tenant_expired.get(tenant, 0)
        if done + rejected + expired != arrivals:
            violations.append(
                f"tenant {tenant}: {done}+{rejected}+{expired} != {arrivals}"
            )
    return violations


def check_memory_lockstep(fleet) -> List[str]:
    """Ownership indexes, CRCs and golden images agree on every up card.

    Mirrors ``_assert_memory_indexes_consistent`` plus the scrub suite's
    golden comparison: the O(1) ownership indexes must answer exactly like a
    naive scan, the mini-OS free list must equal the device's free index,
    and — with fault protection installed and no injector running — every
    frame must read back byte-identical to its golden image with a good CRC.
    """
    violations: List[str] = []
    for card in fleet.cards:
        if card.health == "down":
            continue
        coprocessor = card.driver.coprocessor
        memory = coprocessor.device.memory
        geometry = coprocessor.geometry
        frames = geometry.all_frames()
        naive_unowned = [a for a in frames if memory.owner_of(a) is None]
        if memory.unowned_frames() != naive_unowned:
            violations.append(f"{card.name}: free index diverged from naive scan")
        for name in coprocessor.minios.resident_functions():
            naive = [a for a in frames if memory.owner_of(a) == name]
            if memory.owned_frames(name) != naive:
                violations.append(
                    f"{card.name}: ownership index for {name!r} diverged"
                )
        if coprocessor.minios.free_frames.as_list() != memory.unowned_frames():
            violations.append(f"{card.name}: mini-OS free list != device free index")
        golden = coprocessor.device.golden
        if golden is not None:
            for address in frames:
                if not memory.frame_crc_ok(address):
                    violations.append(f"{card.name}: bad CRC at {address}")
                elif memory.read_frame(address) != golden.payload_for(address):
                    violations.append(
                        f"{card.name}: frame {address} differs from golden"
                    )
    return violations


def check_counter_conservation(fleet) -> List[str]:
    """Control-plane counters balance at quiescence.

    Every migration order settled (completed or failed, zero byte diffs),
    no function still marked in-flight, no scrub/defrag order still pending,
    and no more heals completed than ordered.
    """
    violations: List[str] = []
    stats = fleet.stats
    settled = stats.migrations_completed + stats.migrations_failed
    if stats.migration_orders != settled:
        violations.append(
            f"migration orders {stats.migration_orders} != completed "
            f"{stats.migrations_completed} + failed {stats.migrations_failed}"
        )
    if stats.migration_byte_diffs != 0:
        violations.append(f"{stats.migration_byte_diffs} migration byte diffs")
    if fleet.migrating:
        violations.append(f"functions still marked migrating: {sorted(fleet.migrating)}")
    for card in fleet.cards:
        for kind in sorted(kind.__name__ for kind in card.pending):
            violations.append(f"{card.name}: {kind} still pending at idle")
    # Not completed + skipped: a heal with no up card to go to is counted as
    # skipped and never ordered.
    if stats.heals_completed > stats.heal_orders:
        violations.append(
            f"heals completed {stats.heals_completed} > heal orders {stats.heal_orders}"
        )
    return violations


def check_invariants(fleet, trace_length: int) -> List[str]:
    """Run the whole pack; returns every violation found (empty = clean)."""
    violations = check_request_conservation(fleet, trace_length)
    violations += check_memory_lockstep(fleet)
    violations += check_counter_conservation(fleet)
    return violations
