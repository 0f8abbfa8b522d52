"""Ablation: always-flush (the paper) vs dirty-only eviction writeback.

Algorithm 2 flushes every eviction victim to PMem whether or not it was
updated since its last flush. Tracking dirtiness skips clean
write-backs — fewer PMem writes at the cost of a dirty bit per entry.
Because DLRM pulls and updates come in pairs, most accessed entries ARE
dirty, so the paper's simpler design gives up little; this bench
quantifies exactly how much at the benchmark operating point.
"""

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE


def _check(metrics: dict, params: dict) -> list:
    # Dirty tracking can only help, and because pull/update pairs make
    # most victims dirty anyway, the win stays small — supporting the
    # paper's choice of the simpler always-flush design.
    return failures(
        (metrics["saving"] >= -1e-9, "dirty tracking made the epoch slower"),
        (metrics["saving"] < 0.10,
         f"saving {metrics['saving']:.1%} too large — pull/update pairing "
         "should make most victims dirty"),
    )


@register(
    "ablation_dirty_tracking",
    params=[
        Param("cache_mb", "float", 2048.0),
        Param("workers", "int", 16),
    ],
    headline={"saving": Headline(direction="higher", max_regression=0.10,
                                 noise=0.005)},
    check=_check,
    refs=[
        Ref("always_seconds", "epoch, always-flush (paper)", "{:.2f} s"),
        Ref("tracked_seconds", "epoch, dirty-tracked", "{:.2f} s"),
        Ref("saving", "epoch-time saving", "{:.2%}", paper="expected small"),
    ],
)
def entry(*, cache_mb, workers):
    """Ablation: eviction write-back policy — epoch time of the paper's
    always-flush design vs dirty-only write-back."""
    always = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=cache_mb),
    )
    tracked = simulate_epoch(
        SystemKind.PMEM_OE, workers,
        cache=DEFAULT_PROFILE.cache_config(paper_mb=cache_mb, track_dirty=True),
    )
    return {
        "always_seconds": always.sim_seconds,
        "tracked_seconds": tracked.sim_seconds,
        "saving": 1 - tracked.sim_seconds / always.sim_seconds,
    }
