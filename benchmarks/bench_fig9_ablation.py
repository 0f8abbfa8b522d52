"""Figure 9: individual improvement of cache and pipeline (16 GPUs).

Four PMem-OE configurations (2 GB-equivalent cache where enabled):
both disabled / cache only / pipeline only / both enabled. Paper:
cache alone cuts 42.1 % of training time, the pipeline on top of the
cache cuts another 54.9 %, and together they remove 73.9 %.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.simulation.cluster import SystemKind


def _check(metrics: dict, params: dict) -> list:
    both = metrics["both_ratio"]
    return failures(
        (both < metrics["cache_only_ratio"] < 1.0,
         "cache-only should sit between both-on and both-off"),
        (both < metrics["pipeline_only_ratio"] < 1.0,
         "pipeline-only should sit between both-on and both-off"),
        (0.2 < metrics["cache_cut"] < 0.6,
         f"cache cut {metrics['cache_cut']:.1%} outside 20-60%"),
        (0.3 < metrics["pipeline_cut"] < 0.7,
         f"pipeline cut {metrics['pipeline_cut']:.1%} outside 30-70%"),
        (0.55 < metrics["total_cut"] < 0.85,
         f"total cut {metrics['total_cut']:.1%} outside 55-85%"),
    )


@register(
    "fig9_ablation",
    params=[Param("workers", "int", 16)],
    headline={
        "cache_cut": Headline(direction="higher", max_regression=0.10),
        "pipeline_cut": Headline(direction="higher", max_regression=0.10),
        "total_cut": Headline(direction="higher", max_regression=0.05),
    },
    check=_check,
    refs=[
        # normalised to the both-disabled time
        Ref("cache_only_ratio", "cache only", paper=1 - 0.421),
        Ref("pipeline_only_ratio", "pipeline only", paper="(not quoted)"),
        Ref("both_ratio", "cache + pipeline", paper=1 - 0.739),
        Ref("cache_cut", "reduction from cache", "{:.1%}", paper=0.421),
        Ref("pipeline_cut", "reduction from pipeline", "{:.1%}", paper=0.549),
        Ref("total_cut", "combined reduction", "{:.1%}", paper=0.739),
    ],
)
def entry(*, workers):
    """Figure 9: cache x pipeline ablation — training time of each
    configuration normalised to both-off, and the reductions."""
    none = simulate_epoch(
        SystemKind.PMEM_OE, workers, use_cache=False, pipelined=False
    ).sim_seconds
    cache_only = simulate_epoch(
        SystemKind.PMEM_OE, workers, use_cache=True, pipelined=False
    ).sim_seconds
    pipeline_only = simulate_epoch(
        SystemKind.PMEM_OE, workers, use_cache=False, pipelined=True
    ).sim_seconds
    both = simulate_epoch(
        SystemKind.PMEM_OE, workers, use_cache=True, pipelined=True
    ).sim_seconds
    return {
        "cache_only_ratio": cache_only / none,
        "pipeline_only_ratio": pipeline_only / none,
        "both_ratio": both / none,
        "cache_cut": 1 - cache_only / none,
        "pipeline_cut": 1 - both / cache_only,
        "total_cut": 1 - both / none,
    }
