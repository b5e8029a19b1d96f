"""Tests for the simulation clock and clock domains."""

import pytest

from repro.sim.clock import Clock, ClockDomain, as_ns
from repro.sim.kernel import Simulator, Timeout


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Clock().now == 0.0

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.now == 15

    def test_integral_float_is_converted_at_the_boundary(self):
        clock = Clock()
        assert clock.advance(2.0) == 2
        assert clock.advance(125.0) == 127
        assert clock.advance_to(300.0) == 300
        assert clock.advance(40.0) == 340
        assert [type(t) for t in (Clock().now, clock.now, as_ns(7.0))] == [int] * 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda clock: clock.advance(5.5),
            lambda clock: clock.advance_to(5.5),
            lambda clock: clock.advance_to(float("inf")),
            lambda clock: clock.advance(float("nan")),
            lambda clock: clock.advance("5"),
            lambda clock: clock.advance(True),
        ],
    )
    def test_fractional_time_never_reaches_a_clock(self, call):
        clock = Clock()
        with pytest.raises(TypeError):
            call(clock)
        assert clock.now == 0 and type(clock.now) is int

    def test_advance_rejects_negative_delta(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_moves_forward_only(self):
        clock = Clock()
        clock.advance_to(100.0)
        assert clock.now == 100.0
        clock.advance_to(50.0)  # no-op: already past
        assert clock.now == 100.0


class TestKernelBoundary:
    """The kernel's half of the boundary: what sets ``clock._now`` itself."""

    @staticmethod
    def _sleeper(delay_ns):
        yield Timeout(delay_ns)

    def test_integral_float_delays_are_converted(self):
        simulator = Simulator()
        simulator.spawn(self._sleeper(40.0))
        simulator.schedule_call(70.0, lambda a, b: None)
        assert simulator.run(until_ns=60.0) == 60
        assert simulator.run() == 70
        assert type(simulator.clock.now) is int

    def test_fractional_timeout_raises_where_it_is_dispatched(self):
        simulator = Simulator()
        simulator.spawn(self._sleeper(0.5))
        with pytest.raises(TypeError):
            simulator.run()
        reused = Timeout(3)
        reused.delay_ns = 0.5  # re-stamped, like the fleet's service timeout

        def restamped():
            yield reused

        simulator = Simulator()
        simulator.spawn(restamped())
        with pytest.raises(TypeError):
            simulator.run()

    def test_fractional_horizon_and_schedule_time_raise(self):
        simulator = Simulator()
        with pytest.raises(TypeError):
            simulator.run(until_ns=0.5)
        with pytest.raises(TypeError):
            simulator.schedule_call(0.5, lambda a, b: None)
        assert simulator.clock.now == 0


class TestClockDomain:
    def test_period_and_conversions(self):
        domain = ClockDomain("fabric", 100e6)
        assert domain.period_ns == pytest.approx(10.0)
        assert domain.cycles_to_ns(5) == 50

    def test_cycles_round_half_even_to_whole_ns(self):
        # 33 MHz PCI: 30.30 ns a cycle; one rounding per computed duration.
        domain = ClockDomain("pci", 33e6)
        assert [domain.cycles_to_ns(cycles) for cycles in (1, 8, 33)] == [30, 242, 1000]
        assert ClockDomain("half", 2e9).cycles_to_ns(1) == 0  # 0.5 -> even
        assert ClockDomain("half", 2e9).cycles_to_ns(3) == 2  # 1.5 -> even
        assert type(domain.cycles_to_ns(0.25)) is int

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain("bad", 0.0)
