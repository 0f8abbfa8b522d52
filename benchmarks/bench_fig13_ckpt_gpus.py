"""Figure 13: checkpoint overhead vs number of GPUs (20-min interval).

Paper: PMem-OE's overhead stays ~1.2 % from 4 to 16 GPUs (it is the
dense dump, done by ONE GPU regardless of worker count), and the
sparse-only configuration has no overhead at any scale.
"""

from benchmarks.common import failures, paper_interval, simulate_epoch
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import CheckpointConfig, CheckpointMode
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (0.0 <= metrics["proposed_overhead"] < 0.05,
         f"proposed overhead {metrics['proposed_overhead']:+.2%} "
         "outside [0%, 5%)"),
    )


@register(
    "fig13_ckpt_gpus",
    params=[
        Param("workers", "int", 4),
        Param("iterations", "int", 0, help="0 = profile default for workers"),
    ],
    headline={
        "proposed_overhead": Headline(direction="lower", max_regression=0.10,
                                      noise=0.005),
    },
    check=_check,
    along="workers",
    refs=[
        Ref("proposed_overhead", "proposed    @ {workers} GPUs", "+{:.2%}",
            paper=0.012),
        Ref("sparse_overhead", "sparse only @ {workers} GPUs", "+{:.2%}",
            paper=0.0, abs=0.005),
    ],
    # Scaling GPUs does not inflate the checkpoint overhead (one GPU
    # dumps the dense model either way).
    trends=[Trend("proposed_overhead", along="workers", shape="flat", by=0.02)],
)
def entry(*, workers, iterations):
    """Figure 13: checkpoint overhead at one GPU count under the same
    wall-clock 20-min interval at every scale (as in the paper)."""
    interval = paper_interval(20)
    iters = iterations or DEFAULT_PROFILE.iterations(workers)
    base = simulate_epoch(SystemKind.PMEM_OE, workers, iterations=iters)
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
    return {
        "proposed_overhead": proposed.sim_seconds / base.sim_seconds - 1,
        "sparse_overhead": sparse.sim_seconds / base.sim_seconds - 1,
    }
