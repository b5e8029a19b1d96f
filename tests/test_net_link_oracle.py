"""``Link``'s send-time arithmetic against the pump process it replaced.

:class:`repro.net.link.Link` computes a packet's whole trip inside ``send``.
The oracle (``tests/oracles/pump_link.py``) is the design it replaced — a
``Store`` drained by a pump process that sleeps each serialise time and
spawns an arrival process per packet — and shares no code with it.  For any
send schedule the two must agree on every ``send`` return value, every
``(arrival_ns, request_id)`` and the four traffic counters.

One schedule shape is excluded, because the oracle never defined it: a send
at the exact instant a waiting packet starts serialising, with the queue at
its bound, was decided by which of two kernel entries happened to be numbered
first.  ``Link`` fixes the rule (the packet has left the queue: ``<=``,
pinned in ``test_net_frontdoor.py``); here such schedules are detected by
running the queue arithmetic under both ``<`` and ``<=`` and discarded when
the two disagree.

The queue bound and the bandwidth are the module constants ``QUEUE_PACKETS``
and ``GBPS``; each case patches them, and both sides read them at every
send.
"""

from __future__ import annotations

import operator
from collections import deque
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles.pump_link import PumpLink
from repro.net import link as link_module
from repro.net.link import Link, LinkSpec, Packet
from repro.sim.kernel import Simulator, Timeout
from repro.sim.rand import SeededRandom


def drive(link_class, spec, schedule, seed):
    """Send *schedule* — ``(gap_ns, size_bytes)`` pairs — from one process."""
    simulator = Simulator()
    arrived = []
    link = link_class(
        simulator,
        spec,
        lambda packet: arrived.append((simulator.clock.now, packet.request_id)),
        SeededRandom(seed),
    )
    if link_class is PumpLink:
        link._queue.spawn(link.pump())
    accepted = []

    def sender():
        for index, (gap_ns, size_bytes) in enumerate(schedule):
            yield Timeout(gap_ns)
            accepted.append(link.send(Packet("req", index, size_bytes)))

    simulator.spawn(sender())
    simulator.run()
    return accepted, arrived, (link.offered, link.delivered, link.lost, link.dropped)


def accepted_under(has_left, queue_packets, gbps, schedule):
    """The queue arithmetic alone, its "has left the queue" rule a parameter."""
    now = wire_free = 0
    waiting = deque()
    accepted = []
    for gap_ns, size_bytes in schedule:
        now += gap_ns
        while waiting and has_left(waiting[0], now):
            waiting.popleft()
        accepted.append(len(waiting) < queue_packets)
        if accepted[-1]:
            start = max(now, wire_free)
            if start > now:
                waiting.append(start)
            wire_free = start + round(size_bytes * 8.0 / gbps)
    return accepted


def resolve(sends, gbps):
    """Turn drawn ``(size_bytes, gap_bits)`` into ``(gap_ns, size_bytes)``.

    Gaps are drawn in bits so the offered load is comparable at every
    bandwidth; ``None`` means "exactly the previous packet's serialise time",
    which lands sends on the instants the wire frees.
    """
    schedule = []
    previous_bytes = 0
    for size_bytes, gap_bits in sends:
        if gap_bits is None:
            gap_bits = previous_bytes * 8
        schedule.append((round(gap_bits / gbps), size_bytes))
        previous_bytes = size_bytes
    return schedule


@settings(max_examples=150, deadline=None)
@given(
    sends=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=1500),
            st.one_of(st.just(0), st.none(), st.integers(min_value=0, max_value=16_000)),
        ),
        min_size=1,
        max_size=60,
    ),
    gbps=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
    queue_packets=st.sampled_from([1, 2, 3, 8, 64]),
    latency_ns=st.sampled_from([0, 20_000]),
    loss=st.sampled_from([0.0, 0.3]),
    jitter_ns=st.sampled_from([0, 4_000]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_arithmetic_link_equals_the_pump_it_replaced(
    sends, gbps, queue_packets, latency_ns, loss, jitter_ns, seed
):
    spec = LinkSpec(latency_ns=latency_ns, jitter_ns=jitter_ns, loss=loss)
    schedule = resolve(sends, gbps)
    assume(
        accepted_under(operator.le, queue_packets, gbps, schedule)
        == accepted_under(operator.lt, queue_packets, gbps, schedule)
    )
    with mock.patch.object(link_module, "QUEUE_PACKETS", queue_packets), \
            mock.patch.object(link_module, "GBPS", gbps):
        assert drive(Link, spec, schedule, seed) == drive(PumpLink, spec, schedule, seed)


def test_tail_drops_on_a_running_wire_match_the_pump(monkeypatch):
    # 1000 B at 0.1 Gbit/s = 80 µs on the wire; a send every 30 µs overruns a
    # two-packet queue, so this drops while the wire is busy — the case the
    # un-pumped unit test could never reach.
    monkeypatch.setattr(link_module, "QUEUE_PACKETS", 2)
    monkeypatch.setattr(link_module, "GBPS", 0.1)
    spec = LinkSpec(loss=0.2, jitter_ns=3_000)
    schedule = [(30_000, 1000)] * 40
    accepted, arrived, (offered, delivered, lost, dropped) = drive(Link, spec, schedule, 3)
    assert (accepted, arrived, (offered, delivered, lost, dropped)) == drive(
        PumpLink, spec, schedule, 3
    )
    assert dropped > 10 and lost > 0 and delivered > 0
    assert offered == delivered + lost + dropped == 40
