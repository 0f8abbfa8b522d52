"""'DRAM-PS': the classic pure-DRAM parameter server baseline.

Table III row 1: a DRAM-based hash of embedding entries, checkpointed
with the incremental scheme to a separate checkpoint device. This is
the paper's performance upper bound (no PMem on any path) and its cost
lower bound's counterpoint (DRAM capacity is expensive — Table V needs
two large-DRAM servers where one PMem server suffices).

The node shares the deterministic key-seeded initializer and PS-side
optimizer with :class:`repro.core.ps_node.PSNode`, so weight-for-weight
comparisons in tests are exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.config import ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.initializer import key_seeded_rows
from repro.core.optimizers import PSOptimizer, PSSGD
from repro.core.serving_backend import LookupResult
from repro.baselines.incremental import CheckpointStats, IncrementalCheckpointer
from repro.errors import (
    CheckpointError,
    KeyNotFoundError,
    RecoveryError,
    ServerError,
)
from repro.pmem.pool import PmemPool
from repro.simulation.device import MemoryDevice, PMEM_SPEC
from repro.simulation.metrics import Metrics


class DRAMPSNode:
    """A pure-DRAM PS node with incremental checkpointing.

    Args:
        server_config: dim / seed / init scale (pool sizing unused —
            everything lives in DRAM).
        optimizer: PS-side update rule.
        checkpoint_pool: the checkpoint device; defaults to a PMem pool
            (Section VI-A fixes PMem as every configuration's
            checkpoint device).
        metadata_only: skip weight arrays (performance simulations).
        dram_capacity_bytes: optional hard DRAM budget; exceeding it
            raises — this is how the "500 GB model does not fit"
            scenario of Section VI-F is expressed.
    """

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        optimizer: PSOptimizer | None = None,
        checkpoint_pool: PmemPool | None = None,
        metadata_only: bool = False,
        dram_capacity_bytes: int | None = None,
    ):
        self.server_config = server_config or ServerConfig()
        self.optimizer = optimizer or PSSGD()
        self.metadata_only = metadata_only
        self.dram_capacity_bytes = dram_capacity_bytes
        self.metrics = Metrics()
        dim = self.server_config.embedding_dim
        self.entry_bytes = (dim + self.optimizer.state_width(dim)) * 4
        self._weights: dict[int, np.ndarray | None] = {}
        self._opt_state: dict[int, np.ndarray | None] = {}
        self.latest_completed_batch = -1
        if checkpoint_pool is None:
            checkpoint_pool = PmemPool(
                self.server_config.pmem_capacity_bytes,
                MemoryDevice(PMEM_SPEC),
            )
        self.checkpointer = IncrementalCheckpointer(
            checkpoint_pool, self.entry_bytes, self._read_state
        )

    # ------------------------------------------------------------------
    # PS protocol
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Serve a pull; every access is a DRAM hit."""
        dim = self.server_config.embedding_dim
        value_mode = not self.metadata_only
        out = np.empty((len(keys), dim), dtype=np.float32) if value_mode else None
        created = 0
        for i, key in enumerate(keys):
            if key not in self._weights:
                if not self.server_config.auto_create:
                    raise KeyNotFoundError(key)
                self._create(key)
                created += 1
            if out is not None:
                out[i] = self._weights[key]
        self.metrics.pulls += len(keys)
        self.metrics.cache.hits += len(keys) - created
        self.metrics.entries_created += created
        return PullResult(
            weights=out, hits=len(keys) - created, misses=0, created=created
        )

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """No cache tier to maintain; returns an empty shard list."""
        return []

    @property
    def latest_serving_snapshot(self) -> int:
        """Batch id of the newest durable incremental checkpoint."""
        return self.checkpointer.last_checkpoint_batch

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of committed checkpoints (staleness clock)."""
        return self.checkpointer.checkpoint_epoch

    def lookup(self, keys: Sequence[int], snapshot_id: int | None = None) -> LookupResult:
        """Snapshot-pinned read from the durable checkpoint.

        The incremental checkpointer retains only the *newest* committed
        checkpoint (each dump overwrites the per-key ``("ckpt", key)``
        entry), so the only servable pin is
        :attr:`latest_serving_snapshot`; older pins raise. Keys never
        checkpointed serve the deterministic key-seeded initializer.

        Raises:
            ServerError: metadata-only node.
            CheckpointError: no committed checkpoint, or ``snapshot_id``
                names any checkpoint other than the retained one.
        """
        if self.metadata_only:
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
                weights[i] = key_seeded_rows(cfg.seed, [key], cfg.initializer_scale, dim)[0]
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

    def push(
        self, keys: Sequence[int], grads: np.ndarray | None, batch_id: int
    ) -> int:
        """Apply pushed gradients (duplicates aggregated first)."""
        value_mode = not self.metadata_only
        if value_mode and grads is None:
            raise ServerError("value-mode DRAM-PS requires gradients on push")
        aggregated: dict[int, np.ndarray | None] = {}
        for i, key in enumerate(keys):
            if key not in self._weights:
                raise KeyNotFoundError(key)
            if not value_mode:
                aggregated[key] = None
            elif key in aggregated:
                aggregated[key] = aggregated[key] + grads[i]
            else:
                aggregated[key] = np.array(grads[i], copy=True)
        for key, grad in aggregated.items():
            if value_mode:
                self.optimizer.apply(self._weights[key], self._opt_state[key], grad)
        self.checkpointer.mark_dirty(aggregated)
        # Distinct entries updated, matching the return value (duplicate
        # keys in one push aggregate into a single update).
        self.metrics.updates += len(aggregated)
        self.latest_completed_batch = max(self.latest_completed_batch, batch_id)
        return len(aggregated)

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------

    def checkpoint(self, batch_id: int | None = None) -> CheckpointStats:
        """Synchronous incremental checkpoint (training is paused)."""
        if batch_id is None:
            batch_id = self.latest_completed_batch
        stats = self.checkpointer.checkpoint(batch_id)
        self.metrics.checkpoints_completed += 1
        return stats

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """TrainBackend checkpoint entry point.

        An incremental checkpoint has no deferred-completion machinery:
        the dump is synchronous, so requesting IS completing.

        Raises:
            CheckpointError: no trained batch to snapshot.
        """
        if batch_id is None:
            batch_id = self.latest_completed_batch
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
        """Process death: ALL live state is volatile DRAM and is lost.

        Only the checkpoint pool survives.
        """
        self._weights.clear()
        self._opt_state.clear()
        pool = self.checkpointer.pool
        pool.crash()
        return pool

    @classmethod
    def recover(
        cls,
        checkpoint_pool: PmemPool,
        server_config: ServerConfig,
        optimizer: PSOptimizer | None = None,
        metadata_only: bool = False,
    ) -> tuple["DRAMPSNode", int]:
        """Rebuild a node by replaying the checkpoint file into DRAM.

        Returns ``(node, checkpoint_batch_id)``.

        Raises:
            RecoveryError: no checkpoint was committed before the crash.
        """
        batch_id, state = IncrementalCheckpointer.restore_from_pool(checkpoint_pool)
        node = cls(
            server_config,
            optimizer,
            checkpoint_pool=checkpoint_pool,
            metadata_only=metadata_only,
        )
        dim = server_config.embedding_dim
        for key, stored in state.items():
            if stored is None:
                node._weights[key] = None
                node._opt_state[key] = None
            else:
                node._weights[key] = np.array(stored[:dim], copy=True)
                node._opt_state[key] = (
                    np.array(stored[dim:], copy=True) if stored.size > dim else None
                )
        node.latest_completed_batch = batch_id
        return node, batch_id

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self._weights)

    @property
    def dram_bytes_used(self) -> int:
        return len(self._weights) * self.entry_bytes

    def read_weights(self, key: int) -> np.ndarray:
        if key not in self._weights:
            raise KeyNotFoundError(key)
        return np.array(self._weights[key], copy=True)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        return {
            key: np.array(weights, copy=True)
            for key, weights in self._weights.items()
            if weights is not None
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _create(self, key: int) -> None:
        if (
            self.dram_capacity_bytes is not None
            and self.dram_bytes_used + self.entry_bytes > self.dram_capacity_bytes
        ):
            raise MemoryError(
                f"DRAM-PS out of memory: {self.dram_bytes_used} bytes used, "
                f"capacity {self.dram_capacity_bytes}"
            )
        if self.metadata_only:
            self._weights[key] = None
            self._opt_state[key] = None
        else:
            cfg = self.server_config
            self._weights[key] = key_seeded_rows(
                cfg.seed, [key], cfg.initializer_scale, cfg.embedding_dim
            )[0]
            self._opt_state[key] = self.optimizer.init_state(cfg.embedding_dim)
        self.checkpointer.mark_dirty([key])

    def _read_state(self, keys: Iterable[int]) -> dict[int, np.ndarray | None]:
        state: dict[int, np.ndarray | None] = {}
        for key in keys:
            weights = self._weights.get(key)
            opt_state = self._opt_state.get(key)
            if weights is None:
                state[key] = None
            elif opt_state is None:
                state[key] = np.array(weights, copy=True)
            else:
                state[key] = np.concatenate([weights, opt_state])
        return state
