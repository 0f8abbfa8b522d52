"""'Ori-Cache': the non-pipelined DRAM-PMem cache baseline.

Table III row 3: a hybrid cache built from Facebook's concurrent hash
map and an STL list. Its two differences from OpenEmbedding:

1. **Inline maintenance** — the LRU list is updated, misses are loaded
   and victims written back *immediately on the request path*, under a
   coarse lock (an STL list is not concurrent). The performance model
   charges these as serialized, contended critical sections on the pull
   and push phases instead of the overlapped maintainer slot.
2. **Incremental checkpointing** — a caching system is a black box to
   checkpoints, so Ori-Cache uses the CheckFreq-style incremental dump
   (extra PMem writes that contend with training, Figure 12).

Functionally the cache behaviour (hit/miss stream, eviction order,
trained weights) is identical to OpenEmbedding with the same LRU policy
— the paper notes both have the same miss rate (Section VI-C4). The
implementation therefore reuses :class:`PipelinedCache` and simply runs
the maintainer inline after every pull; tests assert the equivalence.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSOptimizer
from repro.core.serving_backend import LookupResult
from repro.baselines.incremental import CheckpointStats, IncrementalCheckpointer
from repro.errors import CheckpointError, ServerError
from repro.pmem.pool import PmemPool
from repro.simulation.device import MemoryDevice, PMEM_SPEC


class OriCacheNode:
    """A PS node with inline cache maintenance + incremental checkpoints.

    The constructor mirrors :class:`PSNode`; an inline cache must not be
    constructed as pipelined, so the cache config is forced to
    ``pipelined=False``.
    """

    def __init__(
        self,
        node_id: int,
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        metadata_only: bool = False,
        checkpoint_pool: PmemPool | None = None,
    ):
        cache_config = cache_config or CacheConfig()
        if cache_config.pipelined:
            cache_config = CacheConfig(
                capacity_bytes=cache_config.capacity_bytes,
                pipelined=False,
                maintainer_threads=cache_config.maintainer_threads,
                track_dirty=cache_config.track_dirty,
                policy=cache_config.policy,
            )
        self._node = PSNode(
            node_id,
            server_config,
            cache_config,
            optimizer,
            metadata_only=metadata_only,
        )
        if checkpoint_pool is None:
            checkpoint_pool = PmemPool(
                server_config.pmem_capacity_bytes, MemoryDevice(PMEM_SPEC)
            )
        self.checkpointer = IncrementalCheckpointer(
            checkpoint_pool, self._node.store.entry_bytes, self._read_state
        )
        self.last_maintain: MaintainResult | None = None

    # ------------------------------------------------------------------
    # PS protocol — maintenance runs inline with the pull
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Pull with immediate (inline) cache maintenance."""
        result = self._node.pull(keys, batch_id)
        self.last_maintain = self._node.maintain(batch_id)
        return result

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """No deferred work remains; returns the (empty) round's counts."""
        return [self._node.maintain(batch_id)]

    def push(
        self, keys: Sequence[int], grads: np.ndarray | None, batch_id: int
    ) -> int:
        updated = self._node.push(keys, grads, batch_id)
        self.checkpointer.mark_dirty(keys)
        return updated

    # ------------------------------------------------------------------
    # serving reads — from the durable incremental checkpoint
    # ------------------------------------------------------------------

    @property
    def latest_serving_snapshot(self) -> int:
        """Batch id of the newest durable incremental checkpoint."""
        return self.checkpointer.last_checkpoint_batch

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of committed checkpoints (staleness clock)."""
        return self.checkpointer.checkpoint_epoch

    def lookup(
        self, keys: Sequence[int], snapshot_id: int | None = None
    ) -> LookupResult:
        """Snapshot-pinned read from the durable checkpoint.

        Like DRAM-PS, the incremental checkpointer retains only the
        *newest* committed checkpoint, so the only servable pin is
        :attr:`latest_serving_snapshot`. Keys never checkpointed serve
        the deterministic key-seeded initializer.

        Raises:
            ServerError: metadata-only node.
            CheckpointError: no committed checkpoint, or ``snapshot_id``
                names any checkpoint other than the retained one.
        """
        if self._node.metadata_only:
            raise ServerError("lookup requires a value-mode node")
        latest = self.checkpointer.last_checkpoint_batch
        if snapshot_id is None:
            snapshot_id = latest
        if snapshot_id < 0 or snapshot_id != latest:
            raise CheckpointError(
                f"snapshot {snapshot_id} is not servable (incremental "
                f"checkpointing retains only checkpoint {latest})"
            )
        cfg = self.server_config
        dim = cfg.embedding_dim
        n = len(keys)
        weights = np.empty((n, dim), dtype=np.float32)
        hits = cold = 0
        for i, key in enumerate(keys):
            try:
                stored = self.checkpointer.read_entry(int(key))
            except KeyError:
                stored = None
            if stored is None:
                rng = np.random.default_rng((cfg.seed, int(key)))
                weights[i] = rng.uniform(
                    -cfg.initializer_scale, cfg.initializer_scale, dim
                ).astype(np.float32)
                cold += 1
            else:
                weights[i] = np.asarray(stored)[:dim]
                hits += 1
        self.metrics.serving_lookups += 1
        self.metrics.serving_rows += n
        self.metrics.serving_cold_rows += cold
        return LookupResult(
            weights=weights,
            snapshot_id=snapshot_id,
            hits=hits,
            cold=cold,
            row_snapshots=np.full(n, snapshot_id, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # checkpoint / recovery (incremental, like DRAM-PS)
    # ------------------------------------------------------------------

    def checkpoint(self, batch_id: int | None = None) -> CheckpointStats:
        """Synchronous incremental dump of dirty entries."""
        if batch_id is None:
            batch_id = self._node.latest_completed_batch
        stats = self.checkpointer.checkpoint(batch_id)
        self._node.metrics.checkpoints_completed += 1
        return stats

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """TrainBackend checkpoint entry point (synchronous incremental).

        Raises:
            CheckpointError: no trained batch to snapshot.
        """
        if batch_id is None:
            batch_id = self._node.latest_completed_batch
        if batch_id < 0:
            raise CheckpointError("no completed batch to checkpoint")
        self.checkpoint(batch_id)
        return batch_id

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        """Same as :meth:`request_checkpoint` (already synchronous)."""
        return self.request_checkpoint(batch_id)

    def complete_pending_checkpoints(self) -> None:
        """No-op: incremental checkpoints complete synchronously."""

    def crash(self) -> PmemPool:
        """Process death; only the *checkpoint* pool is recoverable.

        Ori-Cache's live PMem entries are updated in place without
        version retention, so they are not batch-consistent after a
        crash — recovery must come from the incremental checkpoint.
        """
        self._node.pool.crash()
        pool = self.checkpointer.pool
        pool.crash()
        return pool

    @classmethod
    def recover(
        cls,
        checkpoint_pool: PmemPool,
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        metadata_only: bool = False,
        node_id: int = 0,
    ) -> tuple["OriCacheNode", int]:
        """Rebuild from the incremental checkpoint file."""
        batch_id, state = IncrementalCheckpointer.restore_from_pool(checkpoint_pool)
        node = cls(
            node_id,
            server_config,
            cache_config,
            optimizer,
            metadata_only=metadata_only,
            checkpoint_pool=checkpoint_pool,
        )
        if state:
            rows = None if metadata_only else np.stack(list(state.values()))
            node._node.store.put(list(state), batch_id, rows)
        for key in state:
            node._node.cache.adopt(key, batch_id)
        node._node.latest_completed_batch = batch_id
        return node, batch_id

    # ------------------------------------------------------------------
    # introspection — delegate to the wrapped node
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        return self._node.metrics

    @property
    def server_config(self) -> ServerConfig:
        return self._node.server_config

    @property
    def cache(self):
        return self._node.cache

    @property
    def num_entries(self) -> int:
        return self._node.num_entries

    @property
    def latest_completed_batch(self) -> int:
        """Newest batch whose updates fully applied (-1 before training)."""
        return self._node.latest_completed_batch

    def read_weights(self, key: int) -> np.ndarray:
        return self._node.read_weights(key)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        return self._node.state_snapshot()

    def _read_state(self, keys: Iterable[int]) -> dict[int, np.ndarray | None]:
        cache = self._node.cache
        return {
            key: cache.read_current_state(key) if key in cache.index else None
            for key in keys
        }
