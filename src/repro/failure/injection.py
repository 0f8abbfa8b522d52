"""Node-kill schedules and hostile-worker profiles for fault runs.

:class:`NodeKillSchedule` / :class:`NodeKillInjector` kill single PS
shards at seeded points in simulated time; the simulator prices each
death (failover or checkpoint recovery) and the scenario engine's soak
polls the injector between protocol operations.

:class:`WorkerFaultProfile` widens the scenario space from *node death*
to *worker misbehavior* (the ``blades``-style taxonomy): stragglers
(delayed compute), delayed and duplicated gradient pushes, and
Byzantine gradients (sign-flip, scaled noise, zero-drop). All draws are
seeded per ``(seed, worker)`` so a hostile run is exactly reproducible,
and the async trainer applies them at scheduler-step granularity (the
SimClock-driven analogue of the paper's batch-boundary crash model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class NodeKillSchedule:
    """Simulated-time instants at which one PS node dies.

    Unlike the paper's crash model (whole-process deaths at batch
    boundaries), this targets *single PS shards* at arbitrary points in
    continuous simulated time — the chaos soak polls
    :class:`NodeKillInjector` between protocol operations, so a kill
    lands mid-batch: after a pull but before the matching push, or
    between the push hitting the primary and the reply reaching the
    worker.

    ``kill_times`` are seconds on the shared
    :class:`~repro.simulation.clock.SimClock`; ``victims`` names the
    shard that dies at each instant (same length).
    """

    kill_times: tuple[float, ...]
    victims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.kill_times) != len(self.victims):
            raise ConfigError("kill_times and victims must have equal length")
        if any(t < 0 for t in self.kill_times):
            raise ConfigError("kill times must be non-negative")
        if any(v < 0 for v in self.victims):
            raise ConfigError("victim node ids must be non-negative")
        order = sorted(range(len(self.kill_times)), key=lambda i: self.kill_times[i])
        object.__setattr__(
            self, "kill_times", tuple(self.kill_times[i] for i in order)
        )
        object.__setattr__(self, "victims", tuple(self.victims[i] for i in order))

    @classmethod
    def poisson(
        cls,
        mttf_seconds: float,
        horizon_seconds: float,
        num_nodes: int,
        seed: int = 0,
        max_kills: int | None = None,
    ) -> "NodeKillSchedule":
        """MTTF-driven kills with seeded uniform victim choice."""
        from repro.failure.mttf import sample_failure_times

        if num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        times = sample_failure_times(mttf_seconds, horizon_seconds, seed)
        if max_kills is not None:
            times = times[:max_kills]
        rng = np.random.default_rng((seed, 0xFA44))
        victims = tuple(int(rng.integers(0, num_nodes)) for _ in times)
        return cls(times, victims)

    def __len__(self) -> int:
        return len(self.kill_times)


class NodeKillInjector:
    """Clock-polled dispenser of due node kills.

    The soak calls :meth:`due` with the current simulated time between
    operations; each scheduled kill is returned exactly once, in time
    order. The injector never touches the cluster itself — the caller
    owns the kill (``node.kill_primary()`` or a full ``crash()``) so
    local, remote, and faulty-wire soaks share one schedule.
    """

    def __init__(self, schedule: NodeKillSchedule):
        self.schedule = schedule
        self._next = 0
        self.kills_fired = 0

    def due(self, now: float) -> list[tuple[float, int]]:
        """All ``(kill_time, victim)`` pairs with ``kill_time <= now``
        not yet dispensed."""
        fired: list[tuple[float, int]] = []
        while (
            self._next < len(self.schedule.kill_times)
            and self.schedule.kill_times[self._next] <= now
        ):
            fired.append(
                (
                    self.schedule.kill_times[self._next],
                    self.schedule.victims[self._next],
                )
            )
            self._next += 1
            self.kills_fired += 1
        return fired

    def peek_next(self) -> tuple[float, int] | None:
        """The next scheduled kill, or ``None`` when exhausted."""
        if self._next >= len(self.schedule.kill_times):
            return None
        return (
            self.schedule.kill_times[self._next],
            self.schedule.victims[self._next],
        )

    @property
    def remaining(self) -> int:
        return len(self.schedule.kill_times) - self._next


#: Byzantine gradient corruption modes (:class:`WorkerFaultProfile`).
BYZANTINE_MODES = ("none", "sign_flip", "scaled_noise", "zero_drop")


@dataclass(frozen=True)
class WorkerFaultProfile:
    """One worker's misbehavior model for hostile-worker chaos runs.

    Attributes:
        straggle_prob: per-turn probability the worker stalls instead
            of computing (its scheduler turns are skipped while asleep).
        straggle_steps: how many scheduler steps one stall lasts.
        delay_prob: per-push probability the push waits ``delay_steps``
            extra scheduler steps beyond the trainer's base staleness.
        delay_steps: extra delay per delayed push.
        duplicate_prob: per-push probability the push is sent twice
            with the *same* ``(worker_id, seq)`` identity — the dedup
            windows (RPC service reply cache, aggregation buffer, a
            bufferless node's own) must absorb the copy on every
            transport.
        byzantine: gradient corruption mode — ``"none"``,
            ``"sign_flip"`` (push ``-scale * g``), ``"scaled_noise"``
            (push ``scale * g`` + seeded Gaussian noise) or
            ``"zero_drop"`` (push zeros with probability
            ``zero_drop_prob``, else the honest gradient). A Byzantine
            worker corrupts only its *embedding* pushes — the PS-side
            defense layer is what the chaos harness isolates — and its
            dense gradients are zeroed so the shared MLP is not
            poisoned outside the PS's jurisdiction.
        byzantine_scale: magnitude multiplier for the corrupt modes.
        zero_drop_prob: probability a ``zero_drop`` push is zeroed.
        seed: base seed; the per-worker RNG is
            ``default_rng((seed, 0xB12A, worker_id))``.
    """

    straggle_prob: float = 0.0
    straggle_steps: int = 4
    delay_prob: float = 0.0
    delay_steps: int = 2
    duplicate_prob: float = 0.0
    byzantine: str = "none"
    byzantine_scale: float = 1.0
    zero_drop_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("straggle_prob", "delay_prob", "duplicate_prob", "zero_drop_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.straggle_steps < 1 or self.delay_steps < 1:
            raise ConfigError("straggle_steps and delay_steps must be >= 1")
        if self.byzantine not in BYZANTINE_MODES:
            raise ConfigError(
                f"byzantine must be one of {BYZANTINE_MODES}, got {self.byzantine!r}"
            )

    def rng_for(self, worker_id: int) -> np.random.Generator:
        """The worker's private, reproducible fault RNG."""
        return np.random.default_rng((self.seed, 0xB12A, worker_id))

    @property
    def is_byzantine(self) -> bool:
        return self.byzantine != "none"

    def corrupt(
        self, grads: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply the Byzantine mode to one push's embedding gradients."""
        if self.byzantine == "sign_flip":
            return (-self.byzantine_scale) * grads
        if self.byzantine == "scaled_noise":
            noise = rng.normal(0.0, 1.0, grads.shape).astype(np.float32)
            return self.byzantine_scale * grads + noise
        if self.byzantine == "zero_drop":
            if rng.random() < self.zero_drop_prob:
                return np.zeros_like(grads)
            return grads
        return grads


def hostile_fleet(
    num_workers: int,
    byzantine_workers: int,
    mode: str = "sign_flip",
    *,
    scale: float = 1.0,
    straggler_workers: int = 0,
    straggle_prob: float = 0.3,
    duplicate_prob: float = 0.0,
    delay_prob: float = 0.0,
    seed: int = 0,
) -> dict[int, WorkerFaultProfile]:
    """Standard hostile-fleet layout for chaos runs and ablations.

    The *first* ``byzantine_workers`` ids are Byzantine (mode/scale as
    given); the next ``straggler_workers`` ids straggle; duplicate and
    delay probabilities, when set, apply to every hostile worker.
    Honest workers get no profile at all.
    """
    if byzantine_workers + straggler_workers > num_workers:
        raise ConfigError(
            f"{byzantine_workers} byzantine + {straggler_workers} stragglers "
            f"> {num_workers} workers"
        )
    fleet: dict[int, WorkerFaultProfile] = {}
    for worker in range(byzantine_workers):
        fleet[worker] = WorkerFaultProfile(
            byzantine=mode,
            byzantine_scale=scale,
            duplicate_prob=duplicate_prob,
            delay_prob=delay_prob,
            seed=seed,
        )
    for worker in range(
        byzantine_workers, byzantine_workers + straggler_workers
    ):
        fleet[worker] = WorkerFaultProfile(
            straggle_prob=straggle_prob,
            duplicate_prob=duplicate_prob,
            delay_prob=delay_prob,
            seed=seed,
        )
    return fleet
