"""Ablation: TinyLFU-style admission filter (extension beyond the paper).

The filter keeps one-hit tail keys out of the DRAM cache. Under the
paper's skew the tail carries ~4 % of accesses, so the win is modest at
the 2 GB point but grows as skew weakens (more tail churn) — a
candidate improvement the paper leaves on the table.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE


def _check(metrics: dict, params: dict) -> list:
    # The filter must never hurt the epoch materially, and it must
    # genuinely reduce the deferred PMem traffic.
    return failures(
        (metrics["epoch_ratio"] <= 1.02,
         f"admission filter slowed the epoch {metrics['epoch_ratio']:.3f}x"),
        (metrics["deferred_reduction"] > 0,
         "filter failed to reduce deferred PMem traffic"),
    )


@register(
    "ablation_admission",
    params=[
        Param("skew", "float", 1.0),
        Param("cache_mb", "float", 400.0),
        Param("workers", "int", 16),
    ],
    headline={
        "epoch_ratio": Headline(direction="lower", max_regression=0.05),
        "deferred_reduction": Headline(direction="higher", max_regression=0.10),
    },
    check=_check,
    along="skew",
    refs=[
        Ref("plain_seconds", "skew {skew}: epoch, filter off", "{:.2f} s"),
        Ref("filtered_seconds", "skew {skew}: epoch, filter on", "{:.2f} s"),
        Ref("plain_deferred_ms", "skew {skew}: deferred, off", "{:.1f} ms"),
        Ref("filtered_deferred_ms", "skew {skew}: deferred, on", "{:.1f} ms"),
    ],
)
def entry(*, skew, cache_mb, workers):
    """Ablation: admission filter off/on — epoch time and deferred PMem
    load+flush work at one skew and cache size."""
    plain = simulate_epoch(
        SystemKind.PMEM_OE, workers, skew=skew,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=cache_mb),
    )
    filtered = simulate_epoch(
        SystemKind.PMEM_OE, workers, skew=skew,
        cache=DEFAULT_PROFILE.cache_config(
            paper_mb=cache_mb, admission_threshold=1
        ),
    )
    return {
        "plain_seconds": plain.sim_seconds,
        "filtered_seconds": filtered.sim_seconds,
        "plain_deferred_ms": plain.maintain_deferred_seconds * 1e3,
        "filtered_deferred_ms": filtered.maintain_deferred_seconds * 1e3,
        "epoch_ratio": filtered.sim_seconds / plain.sim_seconds,
        "deferred_reduction": 1
        - filtered.maintain_deferred_seconds
        / max(plain.maintain_deferred_seconds, 1e-12),
    }
