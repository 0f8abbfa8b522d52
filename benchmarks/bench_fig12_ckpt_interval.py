"""Figure 12: training time vs checkpoint interval (16 GPUs).

Paper overheads vs no-checkpoint at 10/20/30/40-minute intervals:
  PMem-OE (proposed):          2.4 / ~1.2 / ~0.8 / 0.6 %
  PMem-OE (sparse only):       ~0 % at every interval
  PMem-OE (incremental):       21.4 / 19.6 / 17.6 / 16.5 %
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import CheckpointConfig, CheckpointMode
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE, PAPER_EPOCH_HOURS
from repro.simulation.trainer_sim import TrainingSimulator


def _check(metrics: dict, params: dict) -> list:
    # Sparse-only is free (the toleranced +0.0% reference); proposed is
    # near-zero (dense dump only); incremental is an order of magnitude
    # worse.
    proposed = metrics["proposed_overhead"]
    return failures(
        (proposed < 0.05, f"proposed checkpoint overhead {proposed:+.2%} >= 5%"),
        (metrics["incremental_overhead"] > 4 * max(proposed, 0.01),
         "incremental should cost 4x+ the proposed mode"),
    )


@register(
    "fig12_ckpt_interval",
    params=[
        Param("minutes", "int", 20, help="paper-equivalent ckpt interval"),
        Param("workers", "int", 16),
        Param("iterations", "int", 0, help="0 = profile default for workers"),
    ],
    headline={
        "proposed_overhead": Headline(direction="lower", max_regression=0.10,
                                      noise=0.005),
        "incremental_overhead": Headline(direction="lower",
                                         max_regression=0.10),
    },
    check=_check,
    along="minutes",
    refs=[
        Ref("proposed_overhead", "proposed    @ {minutes} min", "+{:.2%}",
            paper={10: 0.024, 20: 0.012, 30: 0.008, 40: 0.006}),
        Ref("checkpoints", "proposed    @ {minutes} min: ckpts", "{}"),
        Ref("sparse_overhead", "sparse only @ {minutes} min", "+{:.2%}",
            paper=0.0, abs=0.005),
        Ref("incremental_overhead", "incremental @ {minutes} min", "+{:.2%}",
            paper={10: 0.214, 20: 0.196, 30: 0.176, 40: 0.165}),
    ],
    # Overhead shrinks as the interval grows.
    trends=[
        Trend("proposed_overhead", along="minutes", shape="falling"),
        Trend("incremental_overhead", along="minutes", shape="falling"),
    ],
)
def entry(*, minutes, workers, iterations):
    """Figure 12: checkpoint overhead vs no-checkpoint at one interval
    for the proposed / sparse-only / incremental modes."""
    # Checkpoint overheads compare a fixed-size dense pause against the
    # interval length, so these runs use the FULL profile epoch (not the
    # shortened bench epoch) to keep the ratio faithful.
    iters = iterations or DEFAULT_PROFILE.iterations(workers)
    base = simulate_epoch(SystemKind.PMEM_OE, workers, iterations=iters)
    interval = TrainingSimulator.interval_for_epoch_fraction(
        base.sim_seconds, minutes, PAPER_EPOCH_HOURS
    )
    proposed = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.BATCH_AWARE, interval),
    )
    sparse = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iters,
        checkpoint=CheckpointConfig(
            CheckpointMode.SPARSE_ONLY, interval, include_dense=False
        ),
    )
    incremental = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.INCREMENTAL, interval),
    )
    return {
        "proposed_overhead": proposed.sim_seconds / base.sim_seconds - 1,
        "sparse_overhead": sparse.sim_seconds / base.sim_seconds - 1,
        "incremental_overhead": incremental.sim_seconds / base.sim_seconds - 1,
        "checkpoints": proposed.checkpoints_completed,
    }
