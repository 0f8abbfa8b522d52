"""Figure 6: end-to-end training-time comparison (with checkpoints).

All systems run their Table III checkpoint configuration at the 20-min
equivalent interval. Paper: PMem-OE is 7.2/6.4/5.6 % faster than
DRAM-PS and 23.8/36.9/53.8 % faster than Ori-Cache at 4/8/16 GPUs.
"""

from benchmarks.common import failures, paper_interval, simulate_epoch
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import CheckpointConfig, CheckpointMode
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE


def _check(metrics: dict, params: dict) -> list:
    # Headline shape: PMem-OE wins against BOTH baselines at EVERY scale
    # once checkpointing is on.
    return failures(
        (metrics["vs_dram"] > 0.0,
         "PMem-OE not faster than DRAM-PS with checkpoints on"),
        (metrics["vs_ori"] > 0.1,
         "PMem-OE advantage over Ori-Cache below 10%"),
    )


@register(
    "fig6_overall",
    params=[
        Param("workers", "int", 16),
        Param("iterations", "int", 0, help="0 = profile default for workers"),
    ],
    headline={
        "vs_dram": Headline(direction="higher", max_regression=0.10),
        "vs_ori": Headline(direction="higher", max_regression=0.10),
    },
    check=_check,
    along="workers",
    refs=[
        Ref("vs_dram", "vs DRAM-PS @ {workers} GPUs", "{:.1%} faster",
            paper={4: 0.072, 8: 0.064, 16: 0.056}),
        Ref("vs_ori", "vs Ori-Cache @ {workers} GPUs", "{:.1%} faster",
            paper={4: 0.238, 8: 0.369, 16: 0.538}),
    ],
    # ...and the Ori-Cache gap widens with GPUs.
    trends=[Trend("vs_ori", along="workers", shape="rising")],
)
def entry(*, workers, iterations):
    """Figure 6: PMem-OE's training-time advantage over DRAM-PS and
    Ori-Cache with each system's checkpoint configuration active."""
    # Full profile epochs: a checkpoint overhead is a dump against the
    # interval, which the shortened bench epoch would distort.
    iters = iterations or DEFAULT_PROFILE.iterations(workers)
    interval = paper_interval(20)
    oe = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.BATCH_AWARE, interval),
    ).sim_seconds
    dram = simulate_epoch(
        SystemKind.DRAM_PS, workers, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.INCREMENTAL, interval),
    ).sim_seconds
    ori = simulate_epoch(
        SystemKind.ORI_CACHE, workers, iterations=iters,
        checkpoint=CheckpointConfig(CheckpointMode.INCREMENTAL, interval),
    ).sim_seconds
    return {"vs_dram": 1 - oe / dram, "vs_ori": 1 - oe / ori}
