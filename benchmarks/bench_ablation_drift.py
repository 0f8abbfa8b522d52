"""Extension: cache behaviour under temporal hot-set drift.

The paper's trace spans 147 days of production traffic; hot sets
rotate. This bench drives the PMem-OE cache with a drifting workload
(60 % of the rank->key mapping reshuffles at each simulated "day") and
measures the cold rate (accesses not served from DRAM) around the
boundaries: a sharp transient right after each rotation, then LRU
re-adaptation back toward the steady state.

Operationally this is why the epoch-level numbers of Figures 7/8 are
stable in production despite drift: the penalty is a short re-warm
spike per rotation, not a permanent miss-rate shift — as long as the
cache comfortably holds the (rotated) hot set.
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, ServerConfig, WorkloadConfig
from repro.core.ps_node import PSNode
from repro.workload.drift import DriftingWorkload


def run_drift_trace(days: int, iters_per_day: int, workers: int, drift_fraction: float):
    profile_keys = 200_000
    workload = DriftingWorkload(
        WorkloadConfig(num_keys=profile_keys, features_per_sample=4, seed=5),
        drift_fraction=drift_fraction,
        batches_per_day=iters_per_day * workers,
    )
    # Zero rows and zero gradients, as the training simulator runs: the
    # cold rate counts accesses, not bytes.
    node = PSNode(
        0,
        ServerConfig(
            embedding_dim=64, pmem_capacity_bytes=1 << 30, seed=5, initializer_scale=0.0
        ),
        CacheConfig(capacity_bytes=int(0.004 * profile_keys) * 64 * 4),
    )
    cold = []
    for batch in range(days * iters_per_day):
        keys = np.concatenate(workload.sample_worker_batches(workers, 64))
        result = node.pull(keys, batch)
        node.maintain(batch)
        pushed = np.unique(keys)
        node.push(pushed, np.zeros((len(pushed), 64), dtype=np.float32), batch)
        cold.append(1.0 - result.hits / result.accesses)
    return np.array(cold), workload.rotations


def _check(metrics: dict, params: dict) -> list:
    return failures(
        # Each rotation produces a clear one-iteration transient...
        (metrics["spike_cold"] > 1.3 * metrics["steady_cold"],
         f"rotation 1 transient {metrics['spike_ratio']:.2f}x not a clear spike"),
        (metrics["spike2_cold"] > 1.3 * metrics["recovered_cold"],
         "rotation 2 transient not a clear spike over the re-adapted rate"),
        # ...and LRU re-adapts well below the spike before the next day.
        (metrics["recovered_cold"] < 0.75 * metrics["spike_cold"],
         "LRU failed to re-adapt after the rotation"),
        (metrics["rotations"] in (params["days"] - 1, params["days"]),
         f"{metrics['rotations']} rotations over {params['days']} days"),
    )


@register(
    "ablation_drift",
    params=[
        Param("days", "int", 3, help="simulated days (>= 3: two rotations)"),
        Param("iters_per_day", "int", 60),
        Param("workers", "int", 8),
        Param("drift_fraction", "float", 0.6),
    ],
    smoke={"iters_per_day": 20},
    headline={
        "spike_ratio": Headline(direction="higher", max_regression=0.10),
        "recovered_cold": Headline(direction="lower", max_regression=0.10),
    },
    check=_check,
    refs=[
        Ref("steady_cold", "steady state (end of day 0)", "{:.2%}"),
        Ref("spike_cold", "transient after rotation 1", "{:.2%}", paper="spike"),
        Ref("recovered_cold", "re-adapted (end of day 1)", "{:.2%}",
            paper="back near steady"),
        Ref("spike2_cold", "transient after rotation 2", "{:.2%}",
            paper="spike again"),
        Ref("rotations", "rotations executed", "{}"),
    ],
)
def entry(*, days, iters_per_day, workers, drift_fraction):
    """Extension: cold rate around daily hot-set rotations of
    ``drift_fraction`` of the rank->key mapping (2 GB-eq cache)."""
    cold, rotations = run_drift_trace(days, iters_per_day, workers,
                                      drift_fraction)
    tail = max(iters_per_day // 4, 2)
    steady_cold = float(cold[iters_per_day - tail : iters_per_day].mean())
    # The re-warm transient lasts ~one synchronous iteration: the first
    # pull after a rotation takes all the cold traffic at once.
    spike_cold = float(cold[iters_per_day])
    return {
        "steady_cold": steady_cold,
        "spike_cold": spike_cold,
        "recovered_cold": float(
            cold[2 * iters_per_day - tail : 2 * iters_per_day].mean()
        ),
        "spike2_cold": float(cold[2 * iters_per_day]),
        "spike_ratio": spike_cold / max(steady_cold, 1e-9),
        "rotations": rotations,
    }
