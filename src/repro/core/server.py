"""Distributed OpenEmbedding server: hash-partitioned PS nodes.

The facade the training framework talks to. A key array is routed once
into a :class:`~repro.core.sharding.KeyPlan` that a pull and the
matching push share: each shard is sent its distinct keys once, a pull
gathers the per-node rows back into request order, and a push is
summed per key before it leaves. Checkpoints are coordinated
cluster-wide so recovery always restores a single consistent batch
across all shards.

This is the reference implementation of the
:class:`~repro.core.backend.TrainBackend` protocol — the surface the
trainers and the lookahead :class:`~repro.dlrm.prefetch.PrefetchPipeline`
program against — and the *only* copy of cluster policy: routing and
request-order gather, cluster-wide checkpoints and retention barriers,
the ring commit, live resharding and failover. How one shard is reached
is a set of small ``_shard_*`` methods — pull, push, lookup, maintain
and checkpoint for training, export / ingest / drop for
:mod:`~repro.core.migration`, probe / promote / rebuild for
:mod:`~repro.core.failover`. Here they call the node object, and
:class:`~repro.network.frontend.RemotePSClient` overrides the ones that
cross the wire to send the same request as a framed RPC.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSOptimizer, PSSGD, checked_grads, coerce_f32
from repro.core.recovery import RecoveryReport, recover_node
from repro.core.replication import ReplicatedPSNode
from repro.core.serving_backend import LookupResult, ReplicaSelector
from repro.core.sharding import (
    RING_STATE_FIELD,
    HashPartitioner,
    KeyPlan,
    pack_ring_state,
    unpack_ring_state,
)
from repro.errors import RecoveryError
from repro.obs.registry import MetricsRegistry, collect_bundle
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.pool import PmemPool
from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION
from repro.pmem.space import CHECKPOINT_ID_FIELD, NO_CHECKPOINT, EntryBlock


class OpenEmbeddingServer:
    """A cluster of PS nodes behind one pull/push interface
    (the in-process :class:`~repro.core.backend.TrainBackend`).

    Args:
        server_config: shard count, embedding dim, pool sizing, seed.
        cache_config: per-node DRAM cache parameters.
        optimizer: PS-side optimizer (shared rule, per-entry state).
        tracer: span/event sink threaded through to every shard (cache
            maintenance, PMem traffic, checkpoint completion).
    """

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        nodes: list[PSNode] | None = None,
        cluster_mode: bool | None = None,
        tracer: Tracer | None = None,
    ):
        self.server_config = server_config or ServerConfig()
        self.cache_config = cache_config or CacheConfig()
        self.optimizer = optimizer or PSSGD()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Cluster retention semantics are needed whenever some wider
        # scope must agree on a common checkpoint: multiple shards here,
        # or this server being one table of a collection (the caller
        # passes True then).
        if cluster_mode is None:
            cluster_mode = self.server_config.num_nodes > 1
        self.cluster_mode = cluster_mode
        self.partitioner = HashPartitioner(self.server_config.num_nodes)
        # The committed ring epoch: commit_ring sets it in the call that
        # writes the durable ring word, and a promotion reports it.
        self.ring_epoch = 0
        # Serving reads fan out across a replicated shard's primary +
        # backup (reads never mutate, so the hot-standby doubles as a
        # serving replica).
        self.replica_selector = ReplicaSelector()
        if nodes is None:
            self.nodes = [
                self._build_node(node_id, self.server_config, self.cluster_mode)
                for node_id in range(self.server_config.num_nodes)
            ]
        else:
            if len(nodes) != self.server_config.num_nodes:
                raise RecoveryError(
                    f"got {len(nodes)} nodes for {self.server_config.num_nodes} shards"
                )
            self.nodes = nodes
        self._restore_or_seed_ring_state()

    def _node_tracer(self, node_id: int) -> Tracer:
        """The span sink handed to shard ``node_id``."""
        return self.tracer

    def _build_node(
        self, node_id: int, server_config: ServerConfig, cluster_mode: bool
    ) -> PSNode | ReplicatedPSNode:
        """One shard: plain for ``replicas=1``; a synchronously-mirrored
        primary/backup pair (:class:`ReplicatedPSNode`) for
        ``replicas=2``, enabling hot failover instead of ~380 s
        checkpoint recovery."""
        node_cls = ReplicatedPSNode if server_config.replicas == 2 else PSNode
        return node_cls(
            node_id,
            server_config,
            self.cache_config,
            self.optimizer,
            cluster_mode=cluster_mode,
            tracer=self._node_tracer(node_id),
        )

    # ------------------------------------------------------------------
    # reaching one shard (RemotePSClient overrides the wire ones)
    # ------------------------------------------------------------------
    # ``index`` is the shard's position in ``self.nodes``; ``flows`` is
    # how many shards the operation touches (a wire client prices the
    # shared link with it).

    def _shard_pull(
        self, index: int, keys, batch_id: int, worker_id, progress, flows: int
    ) -> PullResult:
        return self.nodes[index].pull(
            keys, batch_id, worker_id=worker_id, progress=progress
        )

    def _shard_push(
        self, index: int, keys, grads, batch_id: int, worker_id, seq: int, flows: int
    ) -> int:
        return self.nodes[index].push(
            keys, grads, batch_id, worker_id=worker_id, seq=seq
        )

    def _shard_lookup(
        self, index: int, keys, snapshot_id: int, replica: int | None, flows: int
    ) -> LookupResult:
        if replica is None:
            return self.nodes[index].lookup(keys, snapshot_id)
        return self.nodes[index].lookup(keys, snapshot_id, replica=replica)

    def _shard_maintain(self, index: int, batch_id: int) -> MaintainResult:
        return self.nodes[index].maintain(batch_id)

    def _shard_request_checkpoint(self, index: int, batch_id: int) -> None:
        self.nodes[index].request_checkpoint(batch_id)

    # The control plane reaches a shard here too. Migration names the
    # node object (a scale-out target is not a member until the ring
    # commits); failover names a member by its index.

    def _shard_export(self, node, keys) -> EntryBlock:
        return node.export_entries(keys)

    def _shard_ingest(self, node, block: EntryBlock) -> int:
        return node.ingest_entries(block)

    def _shard_drop(self, node, keys) -> int:
        return node.drop_keys(keys)

    def _shard_probe(self, index: int) -> bool:
        """One liveness check; True iff the shard's primary answered."""
        return bool(getattr(self.nodes[index], "primary_alive", True))

    def _shard_promote(self, index: int) -> float:
        """Promote the shard's backup; returns simulated seconds (0 for a
        live primary: a false positive is an acknowledged no-op).

        Raises:
            FailoverError: double fault — no backup survives.
        """
        node = self.nodes[index]
        if getattr(node, "primary_alive", True):
            return 0.0
        return node.failover()

    def _shard_rebuild_tick(self, index: int, max_keys: int) -> str:
        """Advance the shard's background re-replication one increment
        (a node-side background task, never wire traffic)."""
        tick = getattr(self.nodes[index], "rebuild_tick", None)
        return "idle" if tick is None else tick(max_keys)

    def _shard_rebuild_progress(self, index: int) -> float:
        """Fraction of the rebuild census copied (1.0 = fully replicated)."""
        report = getattr(self.nodes[index], "rebuild_report", None)
        return 1.0 if report is None or report.finished else report.progress

    def _route(self, keys, mixed) -> list[tuple]:
        """``(shard index, its keys, their request positions)`` for every
        shard that owns at least one of ``keys`` (``mixed``: their
        ``mix64``, or None) — the serving read's routing, which keeps a
        lookup's duplicates."""
        per_node_keys, per_node_positions = self.partitioner.split(keys, mixed)
        return [
            (index, node_keys, positions)
            for index, (node_keys, positions) in enumerate(
                zip(per_node_keys, per_node_positions)
            )
            if len(node_keys)
        ]

    # ------------------------------------------------------------------
    # PS protocol
    # ------------------------------------------------------------------

    def plan(self, keys) -> KeyPlan:
        """Route ``keys`` once for a pull and the matching push
        (:meth:`~repro.core.sharding.HashPartitioner.plan`): both take
        the plan wherever they take keys, so the second one neither
        sorts nor splits."""
        return self.partitioner.plan(keys)

    def pull(
        self,
        keys,
        batch_id: int,
        *,
        worker_id: int | None = None,
        progress: int | None = None,
    ) -> PullResult:
        """Gather weights for ``keys`` (or their :meth:`plan`) across
        shards, in request order.

        Each shard is sent its distinct keys once, ascending, and every
        repeat reads its key's row; the counts are per distinct key.
        ``worker_id`` / ``progress`` feed each touched shard's
        bounded-staleness admission check; anonymous pulls (the
        default) bypass it. A :class:`~repro.errors.StalenessError`
        from any shard aborts the pull.
        """
        plan = self.plan(keys)
        with self.tracer.span(
            "server.pull", batch=batch_id, keys=len(plan)
        ) as span:
            rows = np.empty(
                (len(plan.unique), self.server_config.embedding_dim), dtype=np.float32
            )
            hits = misses = created = 0
            for index, positions, node_keys in plan.shards:
                result = self._shard_pull(
                    index, node_keys, batch_id, worker_id, progress, len(plan.shards)
                )
                hits += result.hits
                misses += result.misses
                created += result.created
                rows[positions] = result.weights
            span.set(hits=hits, misses=misses, created=created)
            out = np.take(rows, plan.inverse, axis=0)
            return PullResult(weights=out, hits=hits, misses=misses, created=created)

    def lookup(self, keys, snapshot_id: int | None = None, *, mixed=None) -> LookupResult:
        """Serve a snapshot-pinned batched read across shards.

        The serving read path: pinned to a cluster-wide Checkpointed
        Batch ID (defaults to :attr:`latest_serving_snapshot`), routed
        by the partitioner — over ``mixed``, the keys' ``mix64`` when
        the caller holds it — and, on replicated shards, fanned out
        across primary/backup replicas round-robin by the
        :class:`~repro.core.serving_backend.ReplicaSelector`.
        Never perturbs cache or LRU state.
        """
        with self.tracer.span(
            "server.lookup", track="serving", keys=len(keys)
        ) as span:
            if snapshot_id is None:
                snapshot_id = self.global_completed_checkpoint
            slices = self._route(keys, mixed)
            out = np.empty(
                (len(keys), self.server_config.embedding_dim), dtype=np.float32
            )
            # A row lands as one element, not as ``dim`` floats.
            row = np.dtype((np.void, out.strides[0]))
            placed = out.view(row)[:, 0]
            hits = cold = 0
            for index, node_keys, positions in slices:
                node = self.nodes[index]
                replicas = ReplicaSelector.replica_count(node)
                replica = (
                    self.replica_selector.pick(node.node_id, replicas)
                    if replicas > 1
                    else None
                )
                result = self._shard_lookup(
                    index, node_keys, snapshot_id, replica, len(slices)
                )
                hits += result.hits
                cold += result.cold
                placed[positions] = result.weights.view(row)[:, 0]
            span.set(snapshot=snapshot_id, hits=hits, cold=cold)
            return LookupResult(weights=out, snapshot_id=snapshot_id, hits=hits, cold=cold)

    @property
    def latest_serving_snapshot(self) -> int:
        """Newest checkpoint completed by ALL shards — the serving pin."""
        return self.global_completed_checkpoint

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of checkpoints completed by ALL shards (the
        serving tier's staleness clock — checkpoint ids are batch ids,
        so lag in checkpoints cannot be derived from id arithmetic)."""
        return min([node.coordinator.completed_count for node in self.nodes])

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """Run the maintenance round on every shard."""
        with self.tracer.span("server.maintain", batch=batch_id) as span:
            results = [
                self._shard_maintain(index, batch_id)
                for index in range(len(self.nodes))
            ]
            self._sync_external_barriers()
            span.set(processed=sum(r.processed for r in results))
            return results

    def push(
        self,
        keys,
        grads: np.ndarray,
        batch_id: int,
        *,
        worker_id: int | None = None,
        seq: int = 0,
    ) -> int:
        """Scatter gradients for ``keys`` (or their :meth:`plan`) to the
        owning shards; returns entries updated.

        Each key's rows are summed here, in occurrence order (the
        float32 sequence every PS sums a push in), so a shard receives
        one row per distinct key (:meth:`KeyPlan.summed`).
        ``worker_id`` / ``seq`` identify the push to each shard's replay
        window (a copy applies once) and aggregation buffer; ``seq=0``
        is anonymous.

        Raises:
            ServerError: the gradient block is not ``(len(keys),
                embedding_dim)``; no shard is touched.
        """
        plan = self.plan(keys)
        grads = coerce_f32(checked_grads(grads, len(plan), self.server_config.embedding_dim))
        with self.tracer.span(
            "server.push", batch=batch_id, keys=len(plan)
        ) as span:
            summed = plan.summed(grads)
            updated = 0
            for index, positions, node_keys in plan.shards:
                updated += self._shard_push(
                    index, node_keys, plan.shard_rows(summed, positions), batch_id,
                    worker_id, seq, len(plan.shards),
                )
            span.set(updated=updated)
            return updated

    def flush_aggregation(self) -> int:
        """Fold every shard's buffered contributions now (quiesce)."""
        return sum(node.flush_aggregation() for node in self.nodes)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """Queue a cluster-wide checkpoint on every shard.

        The default id is the newest batch any shard applied, read after
        every shard folded its buffered pushes (each shard folds them
        before it queues a checkpoint anyway): read before, it would
        leave the rows those folds update out of the snapshot.

        Raises:
            CheckpointError: no trained batch to snapshot (the derived
                id is ``-1``; the first shard rejects it).
        """
        if batch_id is None:
            self.flush_aggregation()
            batch_id = self.latest_completed_batch
        for index in range(len(self.nodes)):
            self._shard_request_checkpoint(index, batch_id)
        return batch_id

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        """Checkpoint and synchronously complete on every shard."""
        with self.tracer.span(
            "server.barrier_checkpoint", track="checkpoint"
        ) as span:
            requested = self.request_checkpoint(batch_id)
            self.complete_pending_checkpoints()
            span.set(batch=requested)
            return requested

    def complete_pending_checkpoints(self) -> None:
        """Force every shard's queued checkpoints to complete (flushes
        each shard's cache — a training barrier, not the hot path)."""
        for node in self.nodes:
            node.complete_pending_checkpoints()
        self._sync_external_barriers()

    @property
    def latest_completed_batch(self) -> int:
        """Newest batch whose updates reached every shard it touched."""
        return max(node.latest_completed_batch for node in self.nodes)

    @property
    def global_completed_checkpoint(self) -> int:
        """Newest checkpoint durably completed by ALL shards (-1 if none)."""
        return min([node.coordinator.last_completed for node in self.nodes])

    def _sync_external_barriers(self) -> None:
        """Keep every shard's retention covering the global checkpoint."""
        global_ckpt = self.global_completed_checkpoint
        barrier = None if global_ckpt == NO_CHECKPOINT else global_ckpt
        for node in self.nodes:
            node.set_external_barrier(barrier)

    # ------------------------------------------------------------------
    # elasticity and the committed ring (migration and failover read these)
    # ------------------------------------------------------------------

    @property
    def coordinator_pool(self) -> PmemPool:
        """Node 0's pool — where the committed ring state lives."""
        return self.nodes[0].pool

    def _restore_or_seed_ring_state(self) -> None:
        """Adopt the durable ring state, or persist epoch 0 on first boot.

        The ring state lives in a single root field of the coordinator
        pool, so a fresh cluster seeds it once and a recovered cluster
        (whose config :meth:`recover` took from the committed ring)
        adopts the durable epoch instead of clobbering it.
        """
        if RING_STATE_FIELD not in self.coordinator_pool.root.fields():
            # Write through the node (not the pool) so a replicated
            # coordinator mirrors the ring word onto both replica pools.
            self.nodes[0].set_root_field(
                RING_STATE_FIELD,
                pack_ring_state(0, self.server_config.num_nodes),
            )
            return
        epoch, num_nodes = unpack_ring_state(
            self.coordinator_pool.root.get(RING_STATE_FIELD)
        )
        if num_nodes != self.server_config.num_nodes:
            raise RecoveryError(
                f"durable ring ({num_nodes} nodes) does not match config "
                f"({self.server_config.num_nodes} nodes); recover through "
                "OpenEmbeddingServer.recover"
            )
        self.ring_epoch = epoch

    def commit_ring(self, server_config: ServerConfig, nodes: list[PSNode]) -> int:
        """Atomically commit a new ring epoch and switch routing to
        ``server_config.num_nodes`` nodes.

        The single root-field write below is the migration's commit
        point: a crash before it recovers on the old ring, a crash
        after it recovers on the new one. Returns the new epoch.
        """
        new_epoch = self.ring_epoch + 1
        # NOTE: write through the OLD coordinator node first — for
        # scale-in the coordinator never changes (node 0 survives), and
        # for scale-out it is also node 0. One atomic set, never torn;
        # a replicated coordinator mirrors it onto both replica pools.
        self.nodes[0].set_root_field(
            RING_STATE_FIELD,
            pack_ring_state(new_epoch, server_config.num_nodes),
        )
        self.partitioner = HashPartitioner(server_config.num_nodes)
        self.server_config = server_config
        self.nodes = nodes
        self.cluster_mode = True
        self.ring_epoch = new_epoch
        self._sync_external_barriers()
        self.tracer.instant(
            "migration.ring_commit",
            track="migration",
            epoch=new_epoch,
            nodes=server_config.num_nodes,
        )
        return new_epoch

    def provision_node(self, node_id: int, server_config: ServerConfig) -> PSNode:
        """Build an empty PS node for scale-out (same stack as __init__,
        replicated when ``replicas=2``; a grown cluster always has
        siblings, so the node is born in cluster mode)."""
        return self._build_node(node_id, server_config, cluster_mode=True)

    def scale_out(self, on_step=None):
        """Live-grow the cluster by one node (see
        :class:`~repro.core.migration.ShardMigrator`)."""
        from repro.core.migration import ShardMigrator  # it imports this module

        return ShardMigrator(self, on_step=on_step).scale_out()

    def scale_in(self, on_step=None):
        """Live-shrink the cluster by one node (the highest id leaves)."""
        from repro.core.migration import ShardMigrator

        return ShardMigrator(self, on_step=on_step).scale_in()

    # ------------------------------------------------------------------
    # failure / recovery
    # ------------------------------------------------------------------

    def crash(self) -> list[PmemPool]:
        """Kill every node process; the pools survive."""
        return [node.crash() for node in self.nodes]

    @staticmethod
    def recover(
        pools: list[PmemPool],
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        target_batch_id: int | None = None,
        cluster_mode: bool | None = None,
        tracer: Tracer | None = None,
    ) -> tuple["OpenEmbeddingServer", list[RecoveryReport]]:
        """Rebuild a whole cluster from surviving pools, a mid-migration
        crash included.

        The committed ring word on the coordinator pool (node 0) names
        the cluster: its ``(epoch, num_nodes)`` are whatever the last
        single-word commit wrote, and ``num_nodes`` overrides
        ``server_config``'s. The first ``num_nodes`` pools are recovered;
        surplus ones (a scale-out target whose migration never
        committed, or a scaled-in node's abandoned DIMMs) are discarded.
        Every shard is restored to the newest checkpoint completed by
        ALL shards (or to ``target_batch_id`` when a wider scope — e.g.
        a multi-table collection — must agree on an older one), so the
        recovered model is batch-consistent. Last, every key a shard
        holds but the ring routes elsewhere — the stranded half of a
        migration's dual-ownership window — is purged, so each key has
        exactly one owner.

        Per-shard recoveries are independent and would run in parallel
        on real hardware; the reports' times reflect one shard each. The
        result is always the in-process facade, whichever backend
        crashed: the pools are local objects. A cluster the ring has
        grown or shrunk comes back in cluster mode, as it ran.

        Args:
            pools: ALL surviving pools in node-id order (see
                :meth:`~repro.core.migration.ShardMigrator.crash`).

        Raises:
            RecoveryError: no pools, no ring word, fewer pools than the
                committed ring needs, or no checkpoint every shard
                completed (or one older than ``target_batch_id``).
        """
        if not pools:
            raise RecoveryError("no surviving pools")
        if RING_STATE_FIELD not in pools[0].root.fields():
            raise RecoveryError("the coordinator pool holds no ring word")
        epoch, num_nodes = unpack_ring_state(pools[0].root.get(RING_STATE_FIELD))
        if len(pools) < num_nodes:
            raise RecoveryError(
                f"committed ring needs {num_nodes} pools, only {len(pools)} survived"
            )
        pools = pools[:num_nodes]
        server_config = dataclasses.replace(server_config, num_nodes=num_nodes)
        targets = [
            pool.root.get(CHECKPOINT_ID_FIELD, NO_CHECKPOINT) for pool in pools
        ]
        global_target = min(targets)
        if target_batch_id is not None:
            if target_batch_id > global_target:
                raise RecoveryError(
                    f"target {target_batch_id} newer than durable {global_target}"
                )
            global_target = target_batch_id
        if global_target < 0:
            raise RecoveryError("some shard has no completed checkpoint")
        if cluster_mode is None:
            cluster_mode = num_nodes > 1 or epoch > 0
        nodes = []
        reports = []
        for node_id, pool in enumerate(pools):
            node, report = recover_node(
                pool,
                server_config,
                cache_config,
                optimizer,
                node_id=node_id,
                target_batch_id=global_target,
                calibration=calibration,
                cluster_mode=cluster_mode,
                tracer=tracer,
            )
            nodes.append(node)
            reports.append(report)
        if server_config.replicas == 2:
            # Recovered shards come back replicated: wrap each fresh
            # node as a degraded pair and re-replicate synchronously so
            # the cluster regains single-fault tolerance before serving.
            wrapped = []
            for node in nodes:
                replicated = ReplicatedPSNode.from_primary(node)
                replicated.rebuild_backup()
                wrapped.append(replicated)
            nodes = wrapped
        server = OpenEmbeddingServer(
            server_config,
            cache_config,
            optimizer,
            nodes=nodes,
            cluster_mode=cluster_mode,
            tracer=tracer,
        )
        for node in server.nodes:
            held = node.owned_keys()
            node.drop_keys(held[server.partitioner.owners(held) != node.node_id])
        server._sync_external_barriers()
        return server, reports

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return sum(node.num_entries for node in self.nodes)

    def owned_keys(self) -> np.ndarray:
        """Every key the cluster currently holds, across all shards
        (``uint64``; shard by shard, slot order within one)."""
        return np.concatenate([node.owned_keys() for node in self.nodes])

    def read_weights(self, key: int) -> np.ndarray:
        """Live weights of one key, routed to its shard."""
        return self.nodes[self.partitioner.node_of(key)].read_weights(key)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        """Live weights of every key across all shards.

        Training/debug-only: not checkpoint-consistent (in-flight batch
        updates are visible). Serving and export go through the pinned
        :meth:`lookup` path instead.
        """
        snapshot: dict[int, np.ndarray] = {}
        for node in self.nodes:
            snapshot.update(node.state_snapshot())
        return snapshot

    def aggregate_miss_rate(self) -> float:
        """Cluster-wide cache miss rate."""
        hits = sum(node.metrics.cache.hits for node in self.nodes)
        misses = sum(node.metrics.cache.misses for node in self.nodes)
        if hits + misses == 0:
            return 0.0
        return misses / (hits + misses)

    def collect_metrics(self, registry: MetricsRegistry) -> None:
        """Hoist every shard's stat bundle into ``registry``.

        Each shard contributes under a ``node=<id>`` label, so merged
        registries keep per-shard resolution while queries can still sum
        across the label.
        """
        for node in self.nodes:
            labels = {"node": str(node.node_id)}
            collect_bundle(registry, node.metrics, labels)
            controller, buffer = node.staleness, node.aggregation
            cache = node.cache
            arena = cache.arena
            stored_keys = int(np.count_nonzero(cache.index.columns.head >= 0))
            gauges = {
                "repro_pmem_pool_used_bytes": node.pool.used_bytes,
                "repro_pmem_pool_free_bytes": node.pool.free_bytes,
                "repro_pmem_slab_rows": node.store.slab.rows,
                "repro_pmem_slab_free_rows": node.store.slab.free_rows,
                # Keys with a durable version (their slot carries a head),
                # and how many versions each holds on average: 1 + the
                # barriers that protect one — unbounded while requested
                # checkpoints never complete.
                "repro_pmem_stored_keys": stored_keys,
                "repro_pmem_versions_per_key": (
                    node.store.slab.rows / stored_keys if stored_keys else 0.0
                ),
                "repro_checkpoint_pending": len(node.coordinator.queue),
                "repro_arena_rows": len(arena),
                "repro_arena_capacity_rows": arena.capacity,
                "repro_cache_resident_entries": cache.cached_entries,
                "repro_cache_capacity_entries": cache.capacity_entries,
                "repro_cache_index_keys": len(cache.index),
                "repro_cache_index_load_factor": cache.index.load_factor,
                "repro_async_pulls_admitted": controller.admitted,
                "repro_async_pulls_rejected": controller.rejected,
                "repro_async_max_admitted_lag": controller.max_admitted_lag(),
            }
            if buffer is not None:
                stats = buffer.stats
                gauges["repro_async_aggregator_folds"] = stats.folds
                gauges["repro_async_aggregator_rows_folded"] = stats.rows_folded
                gauges["repro_async_aggregator_rows_reduced"] = stats.rows_reduced
                gauges["repro_async_aggregator_pending"] = buffer.pending
                gauges["repro_async_aggregator_queue_depth_max"] = (
                    stats.max_queue_depth
                )
                gauges["repro_async_duplicates_dropped"] = stats.duplicates_dropped
            for name, value in gauges.items():
                registry.gauge(name, labels).set(value)
