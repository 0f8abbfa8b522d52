"""'PMem-Hash': entries directly in a PMem hash, no DRAM cache.

Section III-B builds this from Intel's libpmemobj concurrent hash map
to show the raw penalty of putting the parameter server on PMem: every
pull reads PMem and every push is a PMem read-modify-write, all on the
critical path.

Observation 2's consistency point is also embodied here: updates land
in place with no version retention, so although every write is durable,
a crash mid-stream leaves a *mix* of batches — there is no batch id to
recover to. :meth:`crash` and :meth:`surviving_state` let tests
demonstrate that the surviving state is not batch-consistent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.initializer import key_seeded_rows
from repro.core.optimizers import PSOptimizer, PSSGD
from repro.core.serving_backend import LookupResult
from repro.errors import CheckpointError, KeyNotFoundError, ServerError
from repro.pmem.pool import PmemPool
from repro.simulation.metrics import Metrics


class PMemHashNode:
    """All-PMem parameter server (no cache, no checkpoint support)."""

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        optimizer: PSOptimizer | None = None,
        metadata_only: bool = False,
        pool: PmemPool | None = None,
    ):
        self.server_config = server_config or ServerConfig()
        self.optimizer = optimizer or PSSGD()
        self.metadata_only = metadata_only
        self.metrics = Metrics()
        dim = self.server_config.embedding_dim
        self.entry_bytes = (dim + self.optimizer.state_width(dim)) * 4
        # Note: not `pool or ...` — an empty PmemPool is falsy (__len__).
        self.pool = (
            pool
            if pool is not None
            else PmemPool(self.server_config.pmem_capacity_bytes)
        )
        self.latest_completed_batch = -1

    # ------------------------------------------------------------------
    # PS protocol
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Serve a pull; every existing key is a PMem read."""
        dim = self.server_config.embedding_dim
        value_mode = not self.metadata_only
        out = np.empty((len(keys), dim), dtype=np.float32) if value_mode else None
        created = 0
        for i, key in enumerate(keys):
            pool_key = ("entry", key)
            if pool_key not in self.pool:
                if not self.server_config.auto_create:
                    raise KeyNotFoundError(key)
                self._create(key)
                created += 1
            if out is not None:
                stored = self.pool.read(pool_key)
                out[i] = stored[:dim]
        self.metrics.pulls += len(keys)
        self.metrics.cache.misses += len(keys) - created  # all PMem reads
        self.metrics.entries_created += created
        return PullResult(
            weights=out, hits=0, misses=len(keys) - created, created=created
        )

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """No cache tier; returns an empty shard list."""
        return []

    @property
    def latest_serving_snapshot(self) -> int:
        """Newest nominally-servable batch (Observation 2 caveat applies).

        PMem-Hash has no version retention: every write is durable the
        moment it lands, so there is nothing newer to wait for — but
        there is also no *older* state to pin to, and concurrent pushes
        mean a "snapshot" here is only as consistent as the in-place
        writes happen to be. :meth:`lookup` documents the caveat.
        """
        return self.latest_completed_batch

    @property
    def checkpoints_completed(self) -> int:
        """Every completed batch is immediately durable here, so the
        "checkpoint" count is simply the number of completed batches."""
        return self.latest_completed_batch + 1

    def lookup(
        self, keys: Sequence[int], snapshot_id: int | None = None
    ) -> LookupResult:
        """Read live pool state (NOT batch-consistent — Observation 2).

        The snapshot pin is validated for range but cannot actually pin:
        with in-place updates and no versioning, the rows returned are
        whatever batch each entry last saw. This is the baseline's
        consistency gap that OpenEmbedding's versioned store closes.
        Missing keys serve the deterministic key-seeded initializer.

        Raises:
            ServerError: metadata-only node.
            CheckpointError: ``snapshot_id`` is negative or newer than
                any completed batch.
        """
        if self.metadata_only:
            raise ServerError("lookup requires a value-mode node")
        latest = self.latest_completed_batch
        if snapshot_id is None:
            snapshot_id = latest
        if snapshot_id < 0 or snapshot_id > latest:
            raise CheckpointError(
                f"snapshot {snapshot_id} is not a completed batch "
                f"(newest completed: {latest})"
            )
        cfg = self.server_config
        dim = cfg.embedding_dim
        n = len(keys)
        weights = np.empty((n, dim), dtype=np.float32)
        hits = cold = 0
        for i, key in enumerate(keys):
            pool_key = ("entry", int(key))
            if pool_key in self.pool:
                stored = self.pool.read(pool_key)
                weights[i] = stored[:dim]
                hits += 1
            else:
                weights[i] = key_seeded_rows(cfg.seed, [key], cfg.initializer_scale, dim)[0]
                cold += 1
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
        """In-place PMem read-modify-write per updated entry."""
        dim = self.server_config.embedding_dim
        value_mode = not self.metadata_only
        if value_mode and grads is None:
            raise ServerError("value-mode PMem-Hash requires gradients on push")
        aggregated: dict[int, np.ndarray | None] = {}
        for i, key in enumerate(keys):
            if ("entry", key) not in self.pool:
                raise KeyNotFoundError(key)
            if not value_mode:
                aggregated[key] = None
            elif key in aggregated:
                aggregated[key] = aggregated[key] + grads[i]
            else:
                aggregated[key] = np.array(grads[i], copy=True)
        for key, grad in aggregated.items():
            pool_key = ("entry", key)
            if value_mode:
                stored = self.pool.read(pool_key)
                weights = stored[:dim]
                state = stored[dim:] if stored.size > dim else None
                self.optimizer.apply(weights, state, grad)
                self.pool.write(pool_key, stored, nbytes=self.entry_bytes)
            else:
                self.pool.write(pool_key, None, nbytes=self.entry_bytes)
            self.metrics.pmem_flush_entries += 1
        # Distinct entries updated, matching the return value (duplicate
        # keys in one push aggregate into a single update).
        self.metrics.updates += len(aggregated)
        self.latest_completed_batch = max(self.latest_completed_batch, batch_id)
        return len(aggregated)

    # ------------------------------------------------------------------
    # checkpoint control (TrainBackend surface; Observation 2's caveat)
    # ------------------------------------------------------------------

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """Every write is already durable — but NOT batch-consistent.

        This baseline has no versioning, so a "checkpoint" adds nothing:
        the call validates its arguments and returns the batch id, and
        what a crash leaves behind is whatever mix of batches the
        in-place writes produced (Observation 2).

        Raises:
            CheckpointError: no trained batch to (nominally) snapshot.
        """
        if batch_id is None:
            batch_id = self.latest_completed_batch
        if batch_id < 0:
            raise CheckpointError("no completed batch to checkpoint")
        return batch_id

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        """Same caveat as :meth:`request_checkpoint`."""
        return self.request_checkpoint(batch_id)

    def complete_pending_checkpoints(self) -> None:
        """No-op: nothing is ever pending."""

    # ------------------------------------------------------------------
    # crash behaviour (Observation 2)
    # ------------------------------------------------------------------

    def crash(self) -> PmemPool:
        """Power loss: everything written is durable — but unversioned."""
        self.pool.crash()
        return self.pool

    def surviving_state(self) -> dict[int, np.ndarray]:
        """The post-crash contents: whatever batch each entry last saw.

        There is no checkpoint id and no way to roll back — tests use
        this to show the state mixes batches (not batch-consistent).
        """
        state: dict[int, np.ndarray] = {}
        dim = self.server_config.embedding_dim
        for pool_key, value in self.pool.items():
            if isinstance(pool_key, tuple) and pool_key and pool_key[0] == "entry":
                if value is not None:
                    state[pool_key[1]] = np.array(value[:dim], copy=True)
        return state

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self.pool)

    def read_weights(self, key: int) -> np.ndarray:
        stored = self.pool.read(("entry", key))
        return np.array(stored[: self.server_config.embedding_dim], copy=True)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        return self.surviving_state()

    def _create(self, key: int) -> None:
        if self.metadata_only:
            self.pool.write(("entry", key), None, nbytes=self.entry_bytes)
            return
        cfg = self.server_config
        weights = key_seeded_rows(
            cfg.seed, [key], cfg.initializer_scale, cfg.embedding_dim
        )[0]
        opt_state = self.optimizer.init_state(cfg.embedding_dim)
        stored = weights if opt_state is None else np.concatenate([weights, opt_state])
        self.pool.write(("entry", key), stored, nbytes=self.entry_bytes)
