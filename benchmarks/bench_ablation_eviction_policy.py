"""Ablation: LRU vs FIFO replacement under the DLRM skew.

The paper explicitly does NOT innovate on replacement policy ("we do
not focus on improving the cache replacement policies") and uses LRU.
This bench checks that default IS load-bearing: FIFO roughly doubles
the miss rate at the 400 MB operating point, because recency matters in
the warm mid-band of the skew even though the very hot head survives
either policy.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.config import EvictionPolicy
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE


def _check(metrics: dict, params: dict) -> list:
    # LRU never loses, and at this cache size the gap is material —
    # supporting the paper's LRU default.
    return failures(
        (metrics["miss_gap"] > 0.02,
         f"FIFO-LRU miss gap {metrics['miss_gap']:.2%} too small — "
         "LRU default no longer load-bearing"),
        (metrics["lru_seconds"] < metrics["fifo_seconds"],
         "LRU epoch no faster than FIFO's"),
    )


@register(
    "ablation_eviction_policy",
    params=[
        Param("cache_mb", "float", 400.0),
        Param("workers", "int", 16),
    ],
    headline={
        "lru_miss": Headline(direction="lower", max_regression=0.05),
        "miss_gap": Headline(direction="higher", max_regression=0.10),
    },
    check=_check,
    refs=[
        Ref("lru_miss", "LRU miss rate (paper's choice)", "{:.2%}"),
        Ref("fifo_miss", "FIFO miss rate", "{:.2%}"),
        Ref("lru_seconds", "epoch time LRU", "{:.2f} s"),
        Ref("fifo_seconds", "epoch time FIFO", "{:.2f} s"),
    ],
)
def entry(*, cache_mb, workers):
    """Ablation: LRU vs FIFO miss rates and epoch times at one cache
    size under the DLRM skew."""
    lru = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=cache_mb),
    )
    fifo = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(
            paper_mb=cache_mb, policy=EvictionPolicy.FIFO
        ),
    )
    return {
        "lru_miss": lru.miss_rate,
        "fifo_miss": fifo.miss_rate,
        "miss_gap": fifo.miss_rate - lru.miss_rate,
        "lru_seconds": lru.sim_seconds,
        "fifo_seconds": fifo.sim_seconds,
    }
