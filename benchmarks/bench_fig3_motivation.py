"""Figure 3: penalty of a naive fine-grained hybrid cache / PMem hash.

The motivation experiment: replacing the DRAM parameter server with (a)
a fine-grained DRAM-PMem cache maintained inline (the Ori-Cache
construction) or (b) a PMem-native concurrent hash, degrades training
— and degrades *worse* as GPU workers multiply.

Paper numbers (training-time ratio to DRAM-PS at the same GPU count):
  hybrid cache: 1.24 (4), 1.558 (8), 2.27 (16)
  PMem-Hash:    2.16 (4), 2.85 (8),  4.17 (16)
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, Trend, register
from repro.simulation.cluster import SystemKind


def _check(metrics: dict, params: dict) -> list:
    return failures(
        # Both penalties exist at every scale.
        (metrics["hybrid_ratio"] > 1.05,
         "hybrid cache shows no penalty over DRAM-PS"),
        (metrics["pmem_hash_ratio"] > 1.5,
         "PMem-Hash penalty over DRAM-PS below 1.5x"),
        (metrics["pmem_hash_ratio"] > metrics["hybrid_ratio"],
         "PMem-Hash should degrade worse than the hybrid cache"),
    )


@register(
    "fig3_motivation",
    params=[Param("workers", "int", 16)],
    headline={
        "hybrid_ratio": Headline(direction="lower", max_regression=0.10),
        "pmem_hash_ratio": Headline(direction="lower", max_regression=0.10),
    },
    check=_check,
    along="workers",
    refs=[
        Ref("hybrid_ratio", "hybrid cache @ {workers} GPUs", "{:.2f}x",
            paper={4: 1.24, 8: 1.558, 16: 2.27}, rel=0.25),
        Ref("pmem_hash_ratio", "PMem-Hash    @ {workers} GPUs", "{:.2f}x",
            paper={4: 2.16, 8: 2.85, 16: 4.17}, rel=0.25),
    ],
    # ...and grow with worker count.
    trends=[
        Trend("hybrid_ratio", along="workers", shape="rising"),
        Trend("pmem_hash_ratio", along="workers", shape="rising"),
    ],
)
def entry(*, workers):
    """Figure 3: training-time penalty of the naive hybrid cache and the
    PMem hash relative to DRAM-PS at one GPU count."""
    dram = simulate_epoch(SystemKind.DRAM_PS, workers).sim_seconds
    hybrid = simulate_epoch(SystemKind.ORI_CACHE, workers).sim_seconds
    pmem_hash = simulate_epoch(SystemKind.PMEM_HASH, workers).sim_seconds
    return {
        "hybrid_ratio": hybrid / dram,
        "pmem_hash_ratio": pmem_hash / dram,
    }
