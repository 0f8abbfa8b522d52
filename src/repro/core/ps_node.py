"""A single OpenEmbedding parameter-server node (Figure 4).

A node bundles: a PMem pool + versioned store (persistent tier), the
pipelined DRAM cache (Algorithms 1/2), a checkpoint coordinator, and a
deterministic key-seeded initializer. The node exposes the PS protocol the
TensorFlow operators call: ``pull``, ``push`` (gradients), ``maintain``
(the cache-maintainer round) and checkpoint control.

Determinism: new entries are initialised by
:func:`~repro.core.initializer.key_seeded_rows`, a pure function of
``(seed, key)``, so initial weights depend only on the key — never on
access order, cache size or pipelining. Tests rely on this to prove the
pipeline is semantics-free.
"""

from __future__ import annotations

import copy
from functools import partial

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.aggregators import (
    AggregationBuffer,
    FoldedPush,
    ReplayWindow,
    default_byzantine_tolerance,
    make_aggregator,
)
from repro.core.cache import MaintainResult, PipelinedCache, PullResult
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.initializer import key_seeded_rows
from repro.core.optimizers import PSOptimizer, PSSGD, checked_grads
from repro.core.serving_backend import LookupResult
from repro.core.sharding import RING_STATE_FIELD
from repro.core.staleness import StalenessController
from repro.errors import CheckpointError, KeyNotFoundError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.pool import PmemPool
from repro.pmem.space import NO_VERSION, EntryBlock, VersionedEntryStore
from repro.simulation.metrics import Metrics


class PSNode:
    """One shard of the distributed embedding table.

    Args:
        node_id: shard index (also perturbs nothing — init is key-seeded).
        server_config: model shape / pool size / seed.
        cache_config: DRAM cache parameters.
        optimizer: PS-side update rule.
        pool: reuse an existing pool — this is how crash recovery hands
            the surviving PMem DIMMs to a fresh node process.
        cluster_mode: this node is one shard of a coordinated cluster;
            its coordinator then retains every completed checkpoint the
            cluster-wide external barrier has not yet superseded (see
            :meth:`CheckpointCoordinator.set_external_barrier`).
        tracer: span/event sink shared with the cache (maintenance
            rounds, PMem load/store, checkpoint completion events).
    """

    def __init__(
        self,
        node_id: int,
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        pool: PmemPool | None = None,
        cluster_mode: bool = False,
        tracer: Tracer | None = None,
    ):
        self.node_id = node_id
        self.server_config = server_config
        self.cache_config = cache_config or CacheConfig()
        self.optimizer = optimizer or PSSGD()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = Metrics()

        dim = server_config.embedding_dim
        stored_bytes = (dim + self.optimizer.state_width(dim)) * 4
        # `pool or ...` would be wrong here: PmemPool defines __len__,
        # so an EMPTY surviving pool (a shard that held no entries) is
        # falsy and would be silently replaced by a fresh pool —
        # discarding its durable checkpoint root during recovery.
        self.pool = pool if pool is not None else PmemPool(
            server_config.pmem_capacity_bytes
        )
        self.store = VersionedEntryStore(self.pool, entry_bytes=stored_bytes)
        self.coordinator = CheckpointCoordinator(self.store, cluster_mode=cluster_mode)
        self.cache = PipelinedCache(
            self.cache_config,
            self.store,
            self.coordinator,
            dim=dim,
            initializer=self._make_initializer(),
            optimizer=self.optimizer,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.latest_completed_batch = -1
        #: Bounded-staleness admission (async training). Always present
        #: so progress vectors are observable; admission only rejects
        #: when the config sets a bound.
        self.staleness = StalenessController(server_config.staleness_bound)
        #: Robust-aggregation buffer, or None for the direct-apply path.
        self.aggregation: AggregationBuffer | None = None
        #: The direct path's ``(worker_id, seq)`` identities of the last
        #: pushes it applied (the buffer keeps its own).
        self.replays = ReplayWindow()
        if server_config.aggregator != "none":
            workers = server_config.aggregator_workers
            f = server_config.aggregator_f
            if f is None:
                f = default_byzantine_tolerance(workers)
            self.aggregation = AggregationBuffer(
                make_aggregator(server_config.aggregator, f),
                num_workers=workers,
                f=min(f, max(0, workers - 1)),
            )
            self.aggregation.tracer = self.tracer

    # ------------------------------------------------------------------
    # PS protocol
    # ------------------------------------------------------------------

    def pull(
        self,
        keys,
        batch_id: int,
        *,
        worker_id: int | None = None,
        progress: int | None = None,
    ) -> PullResult:
        """Serve a PullWeights request.

        ``worker_id`` / ``progress`` feed the bounded-staleness
        admission check (:class:`~repro.core.staleness.StalenessController`);
        anonymous pulls (the default) bypass it.

        Raises:
            StalenessError: the caller is more than the configured bound
                behind the slowest other admitted worker. Raised before
                any cache state is touched.
        """
        self.staleness.admit_pull(worker_id, progress)
        return self.cache.pull(keys, batch_id)

    def maintain(self, batch_id: int) -> MaintainResult:
        """Run the deferred cache-maintenance round for ``batch_id``."""
        return self.cache.maintain(batch_id)

    def push(
        self,
        keys,
        grads: np.ndarray,
        batch_id: int,
        *,
        worker_id: int | None = None,
        seq: int = 0,
    ) -> int:
        """Apply a PushGradients request; marks the batch trained.

        With an aggregation buffer configured the push is folded with
        the other workers' contributions (quorum-triggered) before any
        gradient reaches ``apply_batch``; without one it applies
        directly (the synchronous path, bit-identical to before the
        defense layer existed). Either way a copy of a push the node
        took (same ``(worker_id, seq)``, ``seq`` not 0) is dropped, so
        it applies once on every transport; a refused push is not
        remembered.

        Raises:
            ServerError: gradient shape mismatch.
            KeyNotFoundError: a key that was never pulled.

            A push bound for the buffer is refused for either before the
            progress vector, the dedup window or a queue changes —
            inside a fold it would take the round's honest contributions
            down with it.
        """
        if self.aggregation is None:  # one round of one push, as it came
            if seq and (worker_id, seq) in self.replays:
                return 0
            self.staleness.record_push(worker_id, batch_id)
            updated = self._apply_folds([FoldedPush(keys=keys, grads=grads, batch_id=batch_id)])
            if seq:
                self.replays.remember((worker_id, int(seq)))
            return updated
        grads = checked_grads(grads, len(keys), self.server_config.embedding_dim)
        keys = np.asarray(keys, dtype=np.uint64)
        unknown = self.cache.index.lookup(keys) < 0
        if unknown.any():
            raise KeyNotFoundError(int(keys[unknown][0]))
        self.staleness.record_push(worker_id, batch_id)
        return self._apply_folds(
            self.aggregation.add(worker_id, keys, grads, batch_id, seq=seq)
        )

    def flush_aggregation(self) -> int:
        """Fold every buffered contribution now (quorum or not).

        Part of quiescing: a batch-consistent checkpoint must capture
        buffered gradients, not leave them to fold after the snapshot.
        Returns the number of entries updated.
        """
        if self.aggregation is None:
            return 0
        return self._apply_folds(self.aggregation.flush())

    def _apply_folds(self, folds) -> int:
        """Apply fold rounds in order; returns the entries updated."""
        updated = 0
        for fold in folds:
            updated += self.cache.update(fold.keys, fold.grads, fold.batch_id)
            self.latest_completed_batch = max(
                self.latest_completed_batch, fold.batch_id
            )
        return updated

    # ------------------------------------------------------------------
    # serving reads
    # ------------------------------------------------------------------

    @property
    def latest_serving_snapshot(self) -> int:
        """Newest completed checkpoint — the only valid serving pin.

        Intermediate batch ids are NOT safe snapshot points: between
        barriers the version store prunes versions no retention barrier
        protects, so reading "at most batch b" for an uncheckpointed b
        could silently resolve to an older row. Serving therefore pins
        exclusively to completed checkpoint ids.
        """
        return self.coordinator.last_completed

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of checkpoints completed by this node.

        Checkpoint *ids* are batch ids, so consecutive completed
        checkpoints are not numerically adjacent — a staleness bound of
        "at most k checkpoints behind" can only be enforced against this
        counter, never by subtracting snapshot ids.
        """
        return self.coordinator.completed_count

    def lookup(self, keys, snapshot_id: int | None = None) -> LookupResult:
        """Serve a snapshot-pinned batched read (the inference path).

        Unlike :meth:`pull`, a lookup never perturbs cache state — no
        access-stream append, no LRU touch, no entry creation — and
        reads durable versions ``<= snapshot_id`` straight from the
        store, so concurrent training cannot tear a row. Keys with no
        durable version at the snapshot (created later, or never seen)
        serve the deterministic key-seeded initializer: exactly the
        weights they had (virtually) at snapshot time.

        Raises:
            CheckpointError: ``snapshot_id`` is newer than the newest
                completed checkpoint (or no checkpoint exists yet).
        """
        latest = self.coordinator.last_completed
        if snapshot_id is None:
            snapshot_id = latest
        if snapshot_id < 0 or snapshot_id > latest:
            raise CheckpointError(
                f"snapshot {snapshot_id} is not a completed checkpoint "
                f"(newest completed: {latest})"
            )
        dim = self.server_config.embedding_dim
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        versions, stored = self.store.read_at_most(self._heads(keys), snapshot_id)
        weights = stored[:, :dim]
        missing = (versions == NO_VERSION).nonzero()[0]
        cold = len(missing)
        if cold:
            weights[missing] = self.cache.initial_rows(keys[missing])
        hits = n - cold
        self.metrics.serving_lookups += 1
        self.metrics.serving_rows += n
        self.metrics.serving_cold_rows += cold
        # Every row is at ``snapshot_id``: no per-row snapshots to fill.
        return LookupResult(weights=weights, snapshot_id=snapshot_id, hits=hits, cold=cold)

    # ------------------------------------------------------------------
    # checkpoint control
    # ------------------------------------------------------------------

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """Queue a checkpoint (manual trigger, Figure 5 right).

        Defaults to the latest batch whose updates this node has seen.
        Asking again for the newest queued checkpoint is a no-op, so a
        barrier (a replica rebuild's, a reshard's) behind a pending
        request completes that request.

        Raises:
            CheckpointError: nothing has been trained yet.
        """
        # Buffered (un-folded) gradients must be part of the snapshot:
        # fold them now so the checkpoint is batch-consistent even when
        # the quorum never completed (stragglers, dead workers).
        self.flush_aggregation()
        if batch_id is None:
            batch_id = self.latest_completed_batch
        if batch_id < 0:
            raise CheckpointError("no completed batch to checkpoint")
        if batch_id != self.coordinator.max_pending():
            self.coordinator.request(batch_id)
        return batch_id

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        """:meth:`request_checkpoint` + :meth:`complete_pending_checkpoints`:
        the checkpoint completes synchronously (a clean shutdown, a final
        epoch checkpoint, a reshard's quiesce)."""
        requested = self.request_checkpoint(batch_id)
        self.complete_pending_checkpoints()
        return requested

    def complete_pending_checkpoints(self) -> None:
        """Force queued checkpoints to complete: the cache's drain with
        no bound flushes every row they still wait for."""
        self.cache.complete_pending_checkpoints()

    def set_external_barrier(self, batch_id: int | None) -> None:
        """Pin version retention to a cluster-wide barrier (see
        :meth:`CheckpointCoordinator.set_external_barrier`)."""
        self.coordinator.set_external_barrier(batch_id)

    def seal_at(self, batch_id: int) -> None:
        """Declare this node durably consistent at ``batch_id``.

        Used when a node's content was installed wholesale from outside
        the training path — a migration transfer (the ``seal`` step in
        :mod:`repro.core.migration`) or a replica rebuild
        (:meth:`repro.core.replication.ReplicatedPSNode.finish_rebuild`):
        the ingested versions ARE the checkpoint, so the store's durable
        checkpoint id, the coordinator's completed watermark and the
        trained-batch high-water mark all jump to ``batch_id`` at once.
        """
        self.store.set_checkpointed_batch_id(batch_id)
        self.coordinator.last_completed = batch_id
        self.coordinator._sync_barriers()
        self.latest_completed_batch = batch_id

    def adopt_live_state(self, other: "PSNode", batch_id: int) -> None:
        """Take over what ``other`` holds beyond its durable entries, so a
        replica rebuilt from them promotes into the same decisions: the
        committed ring word of its pool root, the keys ``other`` created
        that no push has stored yet (their rows are still the
        initializer's; async pushes trail their pulls), the progress
        vectors admission reads, the direct path's replay window and the
        aggregation buffer (queued contributions, replay window,
        counters)."""
        fields = other.pool.root.fields()
        if RING_STATE_FIELD in fields:
            self.set_root_field(RING_STATE_FIELD, fields[RING_STATE_FIELD])
        missing = np.setdiff1d(other.owned_keys(), self.owned_keys())
        if len(missing):
            self.cache.pull(missing, batch_id)
        self.staleness = copy.deepcopy(other.staleness)
        self.replays = copy.deepcopy(other.replays)
        if other.aggregation is not None:
            memo = {id(other.aggregation.tracer): self.tracer}
            self.aggregation = copy.deepcopy(other.aggregation, memo)

    def set_root_field(self, field: str, value) -> None:
        """Durably write one named field of the pool root (atomic).

        Exists so cluster-level facts stored in a pool root — the
        committed ring word on the coordinator node — go through the
        node, letting :class:`~repro.core.replication.ReplicatedPSNode`
        mirror the write onto the backup's pool too (a promoted backup
        must still know the committed ring epoch after a fault).
        """
        self.pool.root.set(field, value)

    # ------------------------------------------------------------------
    # shard migration (repro.core.migration)
    # ------------------------------------------------------------------

    def owned_keys(self) -> np.ndarray:
        """Every key this shard currently holds (any tier; ``uint64``,
        slot order)."""
        return self.cache.index.keys()

    def export_entries(self, keys) -> EntryBlock:
        """Read all retained durable versions of ``keys`` for transfer.

        Called after a barrier checkpoint (``barrier_checkpoint``). The
        barrier flushes only the rows a checkpoint waits for, so a row
        the in-flight batch's pull created (a reshard between a batch's
        pulls and its pushes) is still dirty with no stored version:
        the keys' dirty resident rows are flushed here first, and the
        store's newest version of every key is its live state. The
        block's rows are the packed weights+optimizer-state arrays.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        slots = self.cache.index.lookup(keys)
        slots = slots[slots >= 0]
        columns = self.cache.index.columns
        resident = (columns.handle[slots] & 1) == 0
        self.cache.flush_slots(slots[columns.dirty[slots] & resident])
        return self.store.export(keys, self._heads(keys))

    def ingest_entries(self, block: EntryBlock) -> int:
        """Adopt transferred entries as PMem-resident keys.

        Idempotent: a key that already exists (a retried transfer after
        a partial earlier attempt) is dropped and re-ingested, so the
        result is always exactly the sender's versions. Returns the
        number of keys ingested (keys the block holds no version of are
        skipped).

        Raises:
            ServerError: the block holds rows of another width (another
                dimension or optimizer); nothing is ingested.
        """
        width = self.store.slab.width
        if len(block.rows) and block.rows.shape[1] != width:
            raise ServerError(
                f"transferred rows are {block.rows.shape[1]} floats wide, "
                f"this node's rows are {width} (dim "
                f"{self.server_config.embedding_dim} + optimizer state)"
            )
        counts = block.nversions.astype(np.intp)
        held = np.flatnonzero(counts)
        keys = block.keys[held]
        self.drop_keys(keys)
        heads = self.store.ingest(block)
        if len(keys):
            starts = (np.cumsum(counts) - counts)[held]
            newest = np.maximum.reduceat(block.batch_ids, starts)
            self.cache.adopt_many(keys, newest, heads[held])
        return len(keys)

    def _heads(self, keys: np.ndarray) -> np.ndarray:
        """The PMem pointer of every key: the node's one index resolves a
        key to its slot, and the slot carries the head of the key's
        durable chain (no slot, or no durable version yet: -1)."""
        slots = self.cache.index.lookup(keys)
        heads = self.cache.index.columns.head[slots]
        if len(slots) and slots.min() < 0:
            heads[slots < 0] = -1  # mask: slot -1 indexed some other key's head
        return heads

    def drop_keys(self, keys) -> int:
        """Relinquish ownership: remove ``keys`` from every tier.

        Called on the source shard after the ring epoch has committed
        (end of the dual-ownership window). Unknown keys are ignored so
        the call is idempotent under RPC retry. Returns keys dropped.
        """
        index = self.cache.index
        slots = index.lookup(np.unique(np.asarray(keys, dtype=np.uint64)))
        slots = slots[slots >= 0]
        # The store first: a freed slot no longer says where its chain is
        # (nor whose it was). Then every cache structure at once — order
        # stamp, arena row, index cell, queued accesses — so neither a
        # batch probe nor a pending maintenance round can resolve a
        # departed key.
        self.store.drop(index.columns.head[slots])
        self.cache.drop_slots(slots)
        return len(slots)

    # ------------------------------------------------------------------
    # failure simulation
    # ------------------------------------------------------------------

    def crash(self) -> PmemPool:
        """Kill the node process; only the PMem pool survives.

        Returns the pool so the caller can hand it to
        :func:`repro.core.recovery.recover_node`.
        """
        self.tracer.instant(
            "node.crash", track="failure", node=self.node_id,
            entries=self.num_entries,
        )
        self.pool.crash()
        return self.pool

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Distinct keys this node holds (cached or persistent)."""
        return len(self.cache.index)

    def read_weights(self, key: int) -> np.ndarray:
        """Live weights of one key (testing/inspection)."""
        return self.cache.read_current_weights(key)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        """Copy of every key's live weights (reference-model testing)."""
        return self.cache.state_snapshot()

    def _make_initializer(self):
        """``keys -> rows``: the key-seeded initializer at this config."""
        config = self.server_config
        return partial(
            key_seeded_rows, config.seed,
            scale=config.initializer_scale, dim=config.embedding_dim,
        )
