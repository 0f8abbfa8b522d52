"""Ablation: cache-maintainer thread count (16 GPUs).

The pipeline hides maintenance behind GPU compute only while the
maintainer keeps up. This bench uses a fast dense model (small GPU
window) and a miss-heavy cache so the maintainer is genuinely under
pressure: with one thread the deferred work spills past the GPU window
onto the critical path; adding threads pulls it back under.
"""

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, Trend, register
from repro.config import CheckpointConfig
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

GPU_BATCH_S = 0.0012  # a small dense model: a tight window to hide in


def epoch(threads: int):
    profile = DEFAULT_PROFILE
    simulator = TrainingSimulator(
        SystemKind.PMEM_OE,
        profile.cluster_config(16, gpu_batch_time_s=GPU_BATCH_S),
        profile.server_config(),
        profile.cache_config(paper_mb=100, maintainer_threads=threads),
        CheckpointConfig.none(),
        WorkloadGenerator(profile.workload_config()),
    )
    return simulator.run(60)


def _check(metrics: dict, params: dict) -> list:
    # A starved maintainer spills while the well-provisioned one hides
    # completely.
    return failures(
        (params["threads"] != 1 or metrics["spills"],
         "a lone maintainer should spill under this pressure"),
        (params["threads"] < 8 or not metrics["spills"],
         "8 maintainer threads should hide all deferred work"),
    )


@register(
    "ablation_maintainer_threads",
    params=[Param("threads", "int", 1, help="cache-maintainer threads")],
    headline={
        "epoch_seconds": Headline(direction="lower", max_regression=0.05),
    },
    check=_check,
    along="threads",
    refs=[
        Ref("epoch_seconds", "{threads} maintainer thread(s)", "epoch {:.3f} s"),
        Ref("deferred_ms_per_iter", "  deferred vs 1.2 ms gpu window",
            "{:.2f} ms/iter"),
        Ref("spills", "  spills past the window", "{}"),
    ],
    # More threads never hurt, and only the 1-thread run pays any
    # maintenance on the critical path.
    trends=[Trend("epoch_seconds", along="threads", shape="falling", by=0.0)],
)
def entry(*, threads):
    """Ablation: maintainer threads (16 GPUs, 100 MB-eq cache, small GPU
    window) — epoch time and deferred-work spill at one thread count."""
    result = epoch(threads)
    per_iter_deferred = result.maintain_deferred_seconds / result.iterations
    return {
        "epoch_seconds": result.sim_seconds,
        "deferred_ms_per_iter": per_iter_deferred * 1e3,
        "spills": per_iter_deferred > GPU_BATCH_S,
    }
