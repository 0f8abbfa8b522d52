"""Shared benchmark helpers.

Every ``bench_*.py`` states one table or figure of the paper (or one
ablation) exactly once: a ``@register``-ed entry that measures one
point, the paper's reference values and tolerances as data on the
registration, and a ``check`` that holds each measurement to the
figure's claims. All simulated benches share one scaled operating point
(:data:`repro.simulation.profiles.DEFAULT_PROFILE`); see that module's
docstring for the scaling rules.
"""

from __future__ import annotations

from repro.config import CacheConfig, CheckpointConfig
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE, PAPER_EPOCH_HOURS
from repro.simulation.trainer_sim import TrainingRunResult, TrainingSimulator
from repro.workload.generator import WorkloadGenerator


def failures(*claims) -> list:
    """The messages of the ``(holds, message)`` claims that do not hold
    — how a bench's ``check`` states its assertions, one per line."""
    return [message for holds, message in claims if not holds]


def bench_iterations(workers: int) -> int:
    """Iterations for one simulated epoch at benchmark scale.

    Proportional to 1/workers (fixed total samples per epoch) so
    epoch-time scaling across worker counts is meaningful, shortened 4x
    from the profile's full epoch to keep the suite fast.
    """
    return max(40, DEFAULT_PROFILE.epoch_worker_iterations // (workers * 4))


def simulate_epoch(
    system: SystemKind,
    workers: int,
    *,
    cache: CacheConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
    skew: float = 1.0,
    use_cache: bool = True,
    pipelined: bool = True,
    iterations: int | None = None,
    prefetch=None,
    tracer=None,
) -> TrainingRunResult:
    """One simulated training epoch at the shared operating point."""
    profile = DEFAULT_PROFILE
    cache = cache or profile.cache_config(paper_mb=2048)
    if not pipelined and cache.pipelined:
        cache = CacheConfig(
            capacity_bytes=cache.capacity_bytes,
            pipelined=False,
            maintainer_threads=cache.maintainer_threads,
            track_dirty=cache.track_dirty,
            policy=cache.policy,
        )
    simulator = TrainingSimulator(
        system,
        profile.cluster_config(workers),
        profile.server_config(),
        cache,
        checkpoint or CheckpointConfig.none(),
        WorkloadGenerator(profile.workload_config(skew)),
        use_cache=use_cache,
        prefetch=prefetch,
        tracer=tracer,
    )
    return simulator.run(iterations or bench_iterations(workers))


def paper_interval(minutes: float = 20.0) -> float:
    """Simulated seconds standing for ``minutes`` of the paper's wall
    clock. Checkpoint overheads compare a fixed-size dense pause against
    the interval, and the paper's interval is the same wall time at
    every GPU count, so it is anchored once: to the FULL profile epoch
    of 16-GPU PMem-OE, which stands for the testbed's 5.33 h."""
    anchor = simulate_epoch(
        SystemKind.PMEM_OE, 16, iterations=DEFAULT_PROFILE.iterations(16)
    )
    return TrainingSimulator.interval_for_epoch_fraction(
        anchor.sim_seconds, minutes, PAPER_EPOCH_HOURS
    )
