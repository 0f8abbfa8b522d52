"""Ablation: sharded recovery parallelism (Section VI-E's extension).

The paper suggests partitioning the embedding table over several PS
processes so scanning and index rebuilding parallelize. Two parts:

* the analytic model at the paper's 2.1 B-entry scale (recovery time vs
  shard count), and
* a live demo: a sharded cluster crash-recovers and every shard's work
  is verified independent (entry counts partition the key space).
"""

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, ServerConfig
from repro.core.recovery import estimate_recovery_seconds
from repro.core.server import OpenEmbeddingServer

ENTRIES = 2_100_000_000
ENTRY_BYTES = 256
PAPER_1SHARD_S = 380.2


def live_sharded_recovery(num_nodes: int, num_keys: int):
    server_config = ServerConfig(
        num_nodes=num_nodes, embedding_dim=8, pmem_capacity_bytes=1 << 24, seed=2
    )
    cache_config = CacheConfig(capacity_bytes=32 << 10)
    server = OpenEmbeddingServer(server_config, cache_config)
    keys = list(range(num_keys))
    server.pull(keys, 0)
    server.maintain(0)
    server.push(keys, np.full((len(keys), 8), 0.1, dtype=np.float32), 0)
    server.barrier_checkpoint()
    pools = server.crash()
    return OpenEmbeddingServer.recover(pools, server_config, cache_config)


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["linear_ok"], "sharded recovery no longer scales linearly"),
        (metrics["live_sum_ok"], "live shards lost or duplicated entries"),
        (metrics["live_at_checkpoint"],
         "a live shard recovered to the wrong checkpoint"),
        # Hash partitioning balances the shards reasonably.
        (metrics["shard_imbalance"] < 2,
         f"largest shard {metrics['shard_imbalance']:.2f}x the smallest"),
    )


@register(
    "ablation_sharding",
    params=[
        Param("shards", "int", 4, help="PS shard count"),
        Param("live_keys", "int", 3000),
    ],
    smoke={"live_keys": 1500},
    headline={
        "recovery_1shard_s": Headline(direction="lower", max_regression=0.05),
        "linear_ok": Headline(),
        "live_sum_ok": Headline(),
    },
    check=_check,
    along="shards",
    refs=[
        Ref("recovery_sharded_s", "{shards} shard(s)", "{:.1f} s",
            paper={n: PAPER_1SHARD_S / n for n in (1, 2, 4, 8)}, rel=0.12),
    ] + [
        Ref(f"live_shard{shard}_entries", f"  live demo: shard {shard} entries",
            "{}", paper="balanced")
        for shard in range(8)
    ],
)
def entry(*, shards, live_keys):
    """Ablation: recovery time vs PS shard count at paper scale, plus a
    live sharded crash/recover verifying the shards partition the keys."""
    one = estimate_recovery_seconds(
        entries=ENTRIES, versions=ENTRIES, entry_bytes=ENTRY_BYTES, parallelism=1
    )
    sharded = estimate_recovery_seconds(
        entries=ENTRIES, versions=ENTRIES, entry_bytes=ENTRY_BYTES,
        parallelism=shards,
    )
    recovered, reports = live_sharded_recovery(shards, live_keys)
    per_shard = [r.entries_recovered for r in reports]
    return {
        "recovery_1shard_s": one,
        "recovery_sharded_s": sharded,
        "linear_ok": abs(sharded - one / shards) < 1e-6 * one,
        "live_sum_ok": (
            sum(per_shard) == live_keys
            and recovered.num_entries == live_keys
        ),
        "live_at_checkpoint": all(r.checkpoint_batch_id == 0 for r in reports),
        "shard_imbalance": max(per_shard) / max(min(per_shard), 1),
        **{
            f"live_shard{shard}_entries": entries
            for shard, entries in enumerate(per_shard)
        },
    }
