"""Deterministic simulated clock.

A :class:`SimClock` is a monotone counter of simulated seconds. All
device, network and compute costs are charged to a clock, which makes
every benchmark deterministic and independent of host speed.
"""

from __future__ import annotations

from repro.errors import ClockError


class SimClock:
    """Monotone simulated time in seconds.

    The clock only moves forward, by :meth:`advance`. One clock is
    shared by whatever prices work on it: the training simulator's
    iterations (priced by :class:`~repro.simulation.cluster.PSCostModel`,
    which also prices their overlap), an RPC channel's retries and
    backoff, the failure detector's leases and the serving simulator.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Raises:
            ClockError: if ``seconds`` is negative (time is monotone).
        """
        if seconds < 0:
            raise ClockError(f"cannot advance clock by negative duration {seconds}")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}s)"


class PeriodicTimer:
    """Fires every ``period`` seconds of simulated time.

    The training simulator's checkpoint schedule: call
    :meth:`due` with the current time; it returns how many periods have
    elapsed since the last firing and advances its own phase.
    """

    def __init__(self, period: float, start: float = 0.0):
        if period <= 0:
            raise ClockError(f"timer period must be positive, got {period}")
        self.period = float(period)
        self._next_fire = start + self.period

    def due(self, now: float) -> int:
        """Return the number of firings due at ``now`` (possibly 0)."""
        fired = 0
        while now >= self._next_fire:
            fired += 1
            self._next_fire += self.period
        return fired
