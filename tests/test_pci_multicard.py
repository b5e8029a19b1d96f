"""PCI behaviour with multiple cards sharing one event kernel.

Each card owns a full PCI stack (bus, bridge, driver) on its own card-local
clock; the shared :class:`Simulator` kernel interleaves their service
periods on the fleet timeline.  These tests pin down that N-card schedules
are deterministic: the same setup run twice must produce the identical
interleaving, fingerprint for fingerprint.
"""

import hashlib

from repro.core.builder import build_host_driver
from repro.core.config import SMALL_CONFIG
from repro.sim.kernel import Simulator, Timeout

REQUESTS = [
    ("crc32", b"abcd1234"),
    ("parity32", bytes(4)),
    ("adder8", bytes([7, 9])),
    ("popcount8", bytes([0xF0])),
    ("crc32", b"another payload"),
    ("adder8", bytes([1, 2])),
]


def run_two_cards(bank, stagger_ns=250.0):
    """Two cards on distinct buses drained by one kernel; returns the log."""
    drivers = [build_host_driver(config=SMALL_CONFIG, bank=bank) for _ in range(2)]
    simulator = Simulator()
    log = []

    def card_process(index, driver, delay_ns):
        yield Timeout(delay_ns)
        for name, payload in REQUESTS:
            before = driver.clock.now
            result = driver.call(name, payload)
            service_ns = driver.clock.now - before
            yield Timeout(service_ns)
            hit = result.card_result.hit
            log.append((simulator.clock.now, index, name, hit, result.output))

    for index, driver in enumerate(drivers):
        simulator.spawn(card_process(index, driver, index * stagger_ns))
    simulator.run()
    return drivers, simulator, log


def log_digest(log):
    digest = hashlib.sha256()
    for time_ns, index, name, hit, output in log:
        digest.update(f"{time_ns!r}|{index}|{name}|{int(hit)}|".encode())
        digest.update(output)
    return digest.hexdigest()


class TestTwoCardsOneKernel:
    def test_both_cards_complete_all_requests(self, small_bank):
        drivers, simulator, log = run_two_cards(small_bank)
        assert len(log) == 2 * len(REQUESTS)
        for index, driver in enumerate(drivers):
            served = [entry for entry in log if entry[1] == index]
            assert len(served) == len(REQUESTS)
            assert driver.bus.transactions_completed > 0

    def test_cards_interleave_on_the_kernel_timeline(self, small_bank):
        _, _, log = run_two_cards(small_bank)
        order = [index for _, index, *_ in log]
        # A correct shared-kernel schedule alternates between the cards; a
        # serialised schedule (all of card 0 then all of card 1) would mean
        # one card's local time leaked into the other's.
        assert order != sorted(order)
        assert {0, 1} <= set(order)

    def test_buses_are_isolated(self, small_bank):
        drivers, _, _ = run_two_cards(small_bank)
        bus0, bus1 = (driver.bus for driver in drivers)
        assert bus0 is not bus1
        assert bus0.clock is not bus1.clock
        # Both cards sit at the same bus addresses: identical BAR addresses
        # on distinct buses must not collide.
        assert drivers[0].card is not drivers[1].card

    def test_card_clocks_advance_independently_of_kernel(self, small_bank):
        drivers, simulator, _ = run_two_cards(small_bank)
        for driver in drivers:
            # Card-local clocks measure service time only; the kernel clock
            # includes the stagger and any queueing, so it runs ahead.
            assert 0 < driver.clock.now <= simulator.clock.now

    def test_schedule_fingerprint_stable_across_runs(self, small_bank):
        first_drivers, first_sim, first_log = run_two_cards(small_bank)
        second_drivers, second_sim, second_log = run_two_cards(small_bank)
        assert (first_sim.events_dispatched, first_sim.clock.now) == (
            second_sim.events_dispatched,
            second_sim.clock.now,
        )
        assert log_digest(first_log) == log_digest(second_log)
        for first, second in zip(first_drivers, second_drivers):
            assert first.clock.now == second.clock.now
            assert first.bus.transactions_completed == second.bus.transactions_completed
            assert first.bus.bytes_transferred == second.bus.bytes_transferred

    def test_stagger_changes_interleaving_but_not_outputs(self, small_bank):
        _, _, tight = run_two_cards(small_bank, stagger_ns=0.0)
        _, _, loose = run_two_cards(small_bank, stagger_ns=10_000.0)
        outputs = lambda log: sorted(
            (index, name, output) for _, index, name, _, output in log
        )
        assert outputs(tight) == outputs(loose)
        assert log_digest(tight) != log_digest(loose)  # timing did change
