"""Checkpoint-interval planning via Young's formula.

Section VI-A: *"According to Young's formula and the mean time to
failure reporting by Facebook, we set the checkpoint interval to be 20
minutes"*. Young (1974): the optimum interval between checkpoints is

    ``T_opt = sqrt(2 * C * MTTF)``

where ``C`` is the cost of taking one checkpoint and ``MTTF`` the mean
time to failure. With near-zero-cost batch-aware checkpoints the
formula degenerates, so the paper keeps a fixed operational interval;
these helpers let users reproduce that reasoning and budget expected
lost work.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError


def young_interval_seconds(checkpoint_cost_seconds: float, mttf_seconds: float) -> float:
    """Young's optimal checkpoint interval ``sqrt(2 * C * MTTF)``."""
    if checkpoint_cost_seconds <= 0:
        raise ConfigError("checkpoint cost must be positive")
    if mttf_seconds <= 0:
        raise ConfigError("MTTF must be positive")
    return math.sqrt(2.0 * checkpoint_cost_seconds * mttf_seconds)


def expected_lost_work_seconds(interval_seconds: float, mttf_seconds: float) -> float:
    """Expected re-training time lost per failure.

    A failure lands uniformly inside the current interval, so on
    average ``interval / 2`` of work is lost (plus whatever recovery
    takes, accounted separately).
    """
    if interval_seconds <= 0 or mttf_seconds <= 0:
        raise ConfigError("interval and MTTF must be positive")
    return interval_seconds / 2.0


def expected_total_overhead_seconds(
    run_seconds: float,
    interval_seconds: float,
    checkpoint_cost_seconds: float,
    mttf_seconds: float,
    recovery_seconds: float,
) -> float:
    """Expected overhead of a run: checkpoint pauses + failure losses.

    ``(#checkpoints * C) + (#expected failures * (interval/2 + R))`` —
    the quantity the 20-minute default trades off for the measured
    checkpoint cost and recovery time.
    """
    if run_seconds <= 0:
        raise ConfigError("run length must be positive")
    checkpoints = run_seconds / interval_seconds
    failures = run_seconds / mttf_seconds
    lost = expected_lost_work_seconds(interval_seconds, mttf_seconds)
    return checkpoints * checkpoint_cost_seconds + failures * (
        lost + recovery_seconds
    )


def sample_failure_times(
    mttf_seconds: float, horizon_seconds: float, seed: int = 0
) -> tuple[float, ...]:
    """Poisson-process failure instants on ``[0, horizon_seconds)``.

    Inter-arrival gaps are exponential with mean ``mttf_seconds``
    (memoryless — a node that just survived a kill is no safer than a
    fresh one). The whole schedule is a deterministic function of
    ``seed``, so a chaos soak and its fault-free reference replay agree
    on *when* the faults would have fired even though only one of them
    actually injects the kills. Failure times land anywhere in
    continuous simulated time, i.e. mid-batch, not at tidy barriers.
    """
    # A NaN MTTF or horizon, or an infinite horizon, never ends the walk below.
    if not 0 < mttf_seconds < math.inf:
        raise ConfigError(f"MTTF must be positive and finite, got {mttf_seconds}")
    if not 0 < horizon_seconds < math.inf:
        raise ConfigError(
            f"horizon must be positive and finite, got {horizon_seconds}"
        )
    rng = np.random.default_rng((seed, 0xFA33))
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(mttf_seconds))
        if t >= horizon_seconds:
            break
        times.append(t)
    return tuple(times)
