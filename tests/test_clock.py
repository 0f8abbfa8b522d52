"""SimClock and PeriodicTimer."""

import pytest

from repro.errors import ClockError
from repro.simulation.clock import PeriodicTimer, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_advance_zero_is_noop(self):
        clock = SimClock(1.0)
        clock.advance(0.0)
        assert clock.now == 1.0


class TestPeriodicTimer:
    def test_not_due_before_period(self):
        timer = PeriodicTimer(10.0)
        assert timer.due(9.99) == 0

    def test_due_once_after_period(self):
        timer = PeriodicTimer(10.0)
        assert timer.due(10.0) == 1

    def test_multiple_periods_collapse(self):
        timer = PeriodicTimer(10.0)
        assert timer.due(35.0) == 3
        assert timer.due(35.0) == 0

    def test_phase_advances(self):
        timer = PeriodicTimer(10.0)
        timer.due(10.0)
        assert timer.due(19.99) == 0
        assert timer.due(20.0) == 1

    def test_start_offset(self):
        timer = PeriodicTimer(10.0, start=5.0)
        assert timer.due(10.0) == 0
        assert timer.due(15.0) == 1

    def test_invalid_period(self):
        with pytest.raises(ClockError):
            PeriodicTimer(0.0)
