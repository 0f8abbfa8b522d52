"""Figure 8: impact of DRAM cache size (16 GPUs).

Sweeps the cache from the 10 MB-equivalent to the 20 GB-equivalent of a
500 GB model. Paper: training time falls 14.4/18/24.9/32.2/38.2 % by
2 GB, then flattens (20 GB is only ~1 % better than 2 GB) — the skew
means a small cache already captures the hot set.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, Trend, register
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE

#: paper-normalised training time at each cache size (10 MB = 1.0)
PAPER = {10: 1.0, 20: 0.856, 40: 0.82, 100: 0.751, 400: 0.678, 2048: 0.618, 20480: 0.612}


def _check(metrics: dict, params: dict) -> list:
    ratio, cache_mb = metrics["ratio_vs_10mb"], params["cache_mb"]
    return failures(
        (cache_mb <= 10 or ratio < 1.0,
         f"{cache_mb} MB cache no faster than the 10 MB baseline"),
        (cache_mb < 2048 or ratio < 0.75,
         f"{cache_mb} MB cache at {ratio:.3f}, not well below the 10 MB baseline"),
    )


@register(
    "fig8_cache_size",
    params=[
        Param("cache_mb", "float", 2048.0, help="paper-equivalent cache size"),
        Param("workers", "int", 16),
    ],
    headline={
        "ratio_vs_10mb": Headline(direction="lower", max_regression=0.05),
        "miss_rate": Headline(direction="lower", max_regression=0.10),
    },
    check=_check,
    along="cache_mb",
    refs=[
        Ref("ratio_vs_10mb", "{cache_mb:>6.0f} MB-equivalent", "{:.3f}", paper=PAPER),
        Ref("miss_rate", "{cache_mb:>6.0f} MB miss rate", "{:.1%}"),
    ],
    trends=[
        # Monotone improvement with diminishing returns past 2 GB.
        Trend("ratio_vs_10mb", along="cache_mb", shape="falling"),
        Trend("miss_rate", along="cache_mb", shape="falling"),
        Trend("ratio_vs_10mb", along="cache_mb", shape="flat", by=0.06,
              points=(2048, 20480)),
    ],
)
def entry(*, cache_mb, workers):
    """Figure 8: training time at one cache size normalised to the 10
    MB-equivalent baseline, plus the cache miss rate."""
    base = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=10),
    ).sim_seconds
    result = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=cache_mb),
    )
    return {
        "ratio_vs_10mb": result.sim_seconds / base,
        "miss_rate": result.miss_rate,
    }
