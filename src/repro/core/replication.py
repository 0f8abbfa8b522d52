"""Synchronous primary/backup replication (extension beyond the paper).

The paper's answer to failures is *recovery*: rebuild from the PMem
checkpoint in ~380 s. The classic alternative is *replication*: keep a
synchronously-updated backup node and fail over in milliseconds, at the
cost of 2x hardware and doubled update work. This module implements
that alternative so the trade-off is measurable here (see
``bench_ablation_replication``):

* every ``pull`` is served by the primary; every ``push`` and
  ``maintain`` is applied to primary AND backup (synchronous
  replication — the backup is always at the same batch);
* :meth:`failover` promotes the backup instantly — no PMem scan, no
  index rebuild, nothing discarded: the live state (not just the last
  checkpoint) survives;
* a *double fault* (both replicas lost) falls back to ordinary
  checkpoint recovery on either surviving pool.

The replicas stay bitwise identical because all PS operations are
deterministic — an invariant the tests check directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSOptimizer
from repro.errors import FailoverError, NodeDeadError, ServerError
from repro.obs.tracer import Tracer
from repro.pmem.pool import PmemPool
from repro.pmem.space import EntryBlock
from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION


@dataclass
class RebuildReport:
    """Progress/outcome of one background re-replication."""

    keys_total: int = 0
    #: Census keys the copy rounds counted; the finish sets it to the
    #: keys its one copy moved.
    keys_copied: int = 0
    sealed_batch: int = -1
    finished: bool = False

    @property
    def progress(self) -> float:
        """Fraction of the initial key census copied (0..1)."""
        if self.keys_total == 0:
            return 1.0
        return min(1.0, self.keys_copied / self.keys_total)


class ReplicatedPSNode:
    """A PS node mirrored onto a synchronous backup replica.

    Protocol-compatible with :class:`PSNode` for the training path,
    including the shard-migration surface, so
    :class:`~repro.core.server.OpenEmbeddingServer` and the RPC frontend
    can host replicated shards transparently
    (``ServerConfig(replicas=2)``).

    Failure semantics: once :meth:`kill_primary` crashed the primary,
    every data-plane operation raises
    :class:`~repro.errors.NodeDeadError` (over RPC the node simply goes
    *silent* — see :class:`~repro.network.service.PSNodeService`).
    :meth:`failover` promotes the backup; afterwards the node is
    *degraded* until :meth:`finish_rebuild` (or the step-wise
    :meth:`rebuild_tick`) re-replicates a fresh backup in the
    background, restoring tolerance of a second fault. A double fault
    (:meth:`crash`) leaves only pools; recover with
    :func:`repro.core.recovery.recover_node` /
    :meth:`repro.core.server.OpenEmbeddingServer.recover`.
    """

    def __init__(
        self,
        node_id: int,
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        cluster_mode: bool = False,
        tracer: Tracer | None = None,
    ):
        primary = PSNode(
            node_id, server_config, cache_config, optimizer,
            cluster_mode=cluster_mode, tracer=tracer,
        )
        self._wrap(primary, _empty_replica(primary))

    @classmethod
    def from_primary(cls, primary: PSNode) -> "ReplicatedPSNode":
        """Wrap an existing (e.g. freshly recovered) node as a degraded
        replicated shard — no backup yet; run :meth:`rebuild_backup` (or
        tick the background rebuild) to regain fault tolerance."""
        node = cls.__new__(cls)
        node._wrap(primary, None)
        return node

    def _wrap(self, primary: PSNode, backup: PSNode | None) -> None:
        """The one place a replicated shard's state is set."""
        self.node_id = primary.node_id
        self.server_config = primary.server_config
        self.tracer = primary.tracer
        self.primary = primary
        self.backup = backup
        self.failovers = 0
        self._primary_dead = False
        self._reset_rebuild()

    # ------------------------------------------------------------------
    # liveness guard
    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._primary_dead:
            raise NodeDeadError(
                f"node {self.node_id}: primary replica is dead",
                node_id=self.node_id,
            )

    # ------------------------------------------------------------------
    # PS protocol — reads from the primary, writes to both
    # ------------------------------------------------------------------

    def pull(
        self,
        keys,
        batch_id: int,
        *,
        worker_id: int | None = None,
        progress: int | None = None,
    ) -> PullResult:
        self._check_alive()
        # Admission runs on the primary first: a rejected pull raises
        # before either replica's cache is touched, so the pair stays
        # mirrored. Admitted pulls replay identically on the backup
        # (same progress vector -> same decision), keeping a promoted
        # backup's staleness state consistent with the dead primary's.
        result = self.primary.pull(
            keys, batch_id, worker_id=worker_id, progress=progress
        )
        if self.backup is not None:
            # The backup replays the access stream so its cache state
            # (and therefore its checkpoint pipeline) tracks the
            # primary exactly.
            self.backup.pull(
                keys, batch_id, worker_id=worker_id, progress=progress
            )
        return result

    def lookup(self, keys, snapshot_id: int | None = None, replica: int = 0):
        """Serve a snapshot-pinned read from a chosen replica.

        Reads never mutate, so — unlike ``pull`` — they are NOT
        mirrored: the serving tier exploits this to fan lookups out
        across primary AND backup (``replica=1`` targets the backup,
        which holds bitwise-identical durable state). A degraded shard
        transparently collapses every replica index onto the primary,
        so a mid-stream failover only shrinks the fan-out.
        """
        self._check_alive()
        target = self.backup if (replica == 1 and self.backup is not None) else self.primary
        return target.lookup(keys, snapshot_id)

    @property
    def latest_serving_snapshot(self) -> int:
        """Newest completed checkpoint (primary's view; replicas agree)."""
        return self.primary.latest_serving_snapshot

    @property
    def checkpoints_completed(self) -> int:
        """Monotone completed-checkpoint count (primary's view). After a
        failover the promoted backup's counter may lag the dead
        primary's — a regression the serving tier treats as a full cache
        invalidation, which is safe (never under-counts staleness)."""
        return self.primary.checkpoints_completed

    def maintain(self, batch_id: int) -> MaintainResult:
        self._check_alive()
        result = self.primary.maintain(batch_id)
        if self.backup is not None:
            self.backup.maintain(batch_id)
        return result

    def push(
        self,
        keys,
        grads: np.ndarray,
        batch_id: int,
        *,
        worker_id: int | None = None,
        seq: int = 0,
    ) -> int:
        self._check_alive()
        updated = self.primary.push(
            keys, grads, batch_id, worker_id=worker_id, seq=seq
        )
        if self.backup is not None:
            self.backup.push(
                keys, grads, batch_id, worker_id=worker_id, seq=seq
            )
        return updated

    @property
    def staleness(self):
        """The primary's bounded-staleness controller (replicas agree:
        both see the identical admitted stream)."""
        return self.primary.staleness

    @property
    def aggregation(self):
        """The primary's aggregation buffer (mirrored on the backup)."""
        return self.primary.aggregation

    def flush_aggregation(self) -> int:
        """Fold buffered contributions on both replicas (quiesce)."""
        self._check_alive()
        updated = self.primary.flush_aggregation()
        if self.backup is not None:
            self.backup.flush_aggregation()
        return updated

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        self._check_alive()
        requested = self.primary.request_checkpoint(batch_id)
        if self.backup is not None:
            self.backup.request_checkpoint(requested)
        return requested

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        requested = self.request_checkpoint(batch_id)
        self.complete_pending_checkpoints()
        return requested

    def complete_pending_checkpoints(self) -> None:
        self._check_alive()
        self.primary.complete_pending_checkpoints()
        if self.backup is not None:
            self.backup.complete_pending_checkpoints()

    def set_external_barrier(self, batch_id: int | None) -> None:
        self.primary.set_external_barrier(batch_id)
        if self.backup is not None:
            self.backup.set_external_barrier(batch_id)

    def seal_at(self, batch_id: int) -> None:
        self.primary.seal_at(batch_id)
        if self.backup is not None:
            self.backup.seal_at(batch_id)

    def set_root_field(self, field: str, value) -> None:
        """Durable root-field write, mirrored to BOTH replica pools so a
        promoted backup still carries cluster facts like the committed
        ring word (and double-fault recovery can read them from the
        surviving pool)."""
        self._check_alive()
        self.primary.set_root_field(field, value)
        if self.backup is not None:
            self.backup.set_root_field(field, value)

    # ------------------------------------------------------------------
    # shard migration — both replicas take every move
    # ------------------------------------------------------------------

    def owned_keys(self) -> np.ndarray:
        return self.primary.owned_keys()

    def export_entries(self, keys) -> EntryBlock:
        """Transfer reads come from the primary (replicas are bitwise
        identical, which :meth:`verify_replicas_identical` checks)."""
        self._check_alive()
        return self.primary.export_entries(keys)

    def ingest_entries(self, block: EntryBlock) -> int:
        """Adopt migrated entries on primary AND backup.

        Mirroring the ingest keeps the replicas bitwise identical across
        a ring-epoch change — a failover after a migration must serve
        exactly the post-migration shard.
        """
        self._check_alive()
        count = self.primary.ingest_entries(block)
        if self.backup is not None:
            self.backup.ingest_entries(block)
        return count

    def drop_keys(self, keys) -> int:
        """Relinquish migrated-away keys on primary AND backup."""
        self._check_alive()
        dropped = self.primary.drop_keys(keys)
        if self.backup is not None:
            self.backup.drop_keys(keys)
        return dropped

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def kill_primary(self) -> None:
        """Kill the primary process; its pool survives, unused unless the
        backup dies too.

        Never refuses: killing the primary of a degraded shard is the
        double fault (:meth:`failover` then raises), which a failure
        injector must be able to create. Idempotent (a dead primary
        stays dead).
        """
        if self._primary_dead:
            return
        self.primary.crash()
        self._primary_dead = True

    @property
    def primary_alive(self) -> bool:
        """False once the primary has crashed (heartbeats go silent)."""
        return not self._primary_dead

    def failover(self) -> float:
        """Promote the backup; returns the simulated failover seconds.

        Nothing is scanned or rebuilt — the backup's DRAM structures are
        already live — so the cost is a role switch plus client
        redirection, orders of magnitude below checkpoint recovery.
        Routing is the client's partitioner; the committed ring word is
        mirrored onto the backup's pool (:meth:`set_root_field`), so the
        promoted replica holds it without being told.

        Raises:
            ServerError: no failed primary to replace.
            FailoverError: the backup is gone too (double fault) —
                fall back to checkpoint recovery.
        """
        if not self._primary_dead:
            raise ServerError("failover without a failed primary")
        if self.backup is None:
            raise FailoverError(
                f"node {self.node_id}: double fault — no backup to promote",
                node_id=self.node_id,
            )
        self.primary = self.backup
        self.backup = None
        self._primary_dead = False
        self.failovers += 1
        self._reset_rebuild()
        self.tracer.instant("failover.promote", track="failure", node=self.node_id)
        return FAILOVER_SECONDS

    def crash(self) -> PmemPool:
        """Double fault: kill whatever replicas remain.

        Returns the primary's pool — the surviving durable state the
        checkpoint-recovery ladder (:func:`~repro.core.recovery.recover_node`
        or :meth:`~repro.core.server.OpenEmbeddingServer.recover`) rebuilds from.
        """
        if self.backup is not None:
            self.backup.crash()
        if not self._primary_dead:
            self.primary.crash()
        self._primary_dead = True
        self._reset_rebuild()
        return self.primary.pool

    @property
    def degraded(self) -> bool:
        """True after a failover consumed the backup."""
        return self.backup is None

    # ------------------------------------------------------------------
    # background re-replication (after a failover consumed the backup)
    # ------------------------------------------------------------------

    def _reset_rebuild(self) -> None:
        self._rebuilding = False
        self.rebuild_report = RebuildReport(finished=self.backup is not None)

    def begin_rebuild(self) -> int:
        """Start re-replicating a fresh backup; returns the key census.

        Takes a barrier checkpoint so the store's newest version of
        every key equals its live state, and records how many keys the
        shard holds. :meth:`rebuild_step` paces the rebuild in rounds of
        that census while training continues; :meth:`finish_rebuild`
        makes the one copy.
        """
        self._check_alive()
        if not self.degraded:
            raise ServerError("rebuild only applies to a degraded node")
        if self._rebuilding:
            raise ServerError("rebuild already in progress")
        if self.primary.latest_completed_batch > self.primary.coordinator.last_completed:
            self.primary.barrier_checkpoint()
        self._rebuilding = True
        self.rebuild_report = RebuildReport(keys_total=self.primary.num_entries)
        self.tracer.instant(
            "failover.rebuild_begin", track="failure", node=self.node_id,
            keys=self.rebuild_report.keys_total,
        )
        return self.rebuild_report.keys_total

    def rebuild_step(self, max_keys: int = 64) -> int:
        """Count one round of up to ``max_keys`` census keys.

        The rounds are the rebuild's pacing — one per heartbeat, so the
        degraded window (where a second fault is a double fault) lasts
        as long as copying the census would. Returns the keys this round
        counted (0 once the census is counted — call
        :meth:`finish_rebuild` then).
        """
        self._check_alive()
        if not self._rebuilding:
            raise ServerError("no rebuild in progress")
        if max_keys <= 0:
            raise ServerError(f"max_keys must be positive, got {max_keys}")
        report = self.rebuild_report
        chunk = min(max_keys, report.keys_total - report.keys_copied)
        report.keys_copied += chunk
        return chunk

    def finish_rebuild(self) -> RebuildReport:
        """Copy the shard onto a fresh backup and install it; ends
        degraded mode.

        Takes a fresh barrier (the *seal batch*) and moves every owned
        key in one export → ingest, as a migration moves a shard, so
        whatever training, pulls or reshards did during the rounds is in
        the copy. The replica is sealed at the barrier batch; from here
        on synchronous mirroring keeps the pair bitwise identical —
        which :meth:`verify_replicas_identical` checks.
        """
        self._check_alive()
        if not self._rebuilding:
            raise ServerError("no rebuild in progress")
        sealed = self.primary.coordinator.last_completed
        if self.primary.latest_completed_batch > sealed:
            sealed = self.primary.barrier_checkpoint()
        backup = _empty_replica(self.primary)
        keys = np.sort(self.primary.owned_keys())
        backup.ingest_entries(self.primary.export_entries(keys))
        # Everything the entries do not carry — the committed ring word a
        # future promotion must serve (and recover) by, progress vectors,
        # the aggregation buffer, keys still ahead of their pushes.
        backup.adopt_live_state(self.primary, sealed)
        if sealed >= 0:
            backup.seal_at(sealed)
        self.backup = backup
        self._rebuilding = False
        report = self.rebuild_report
        report.keys_copied = len(keys)
        report.sealed_batch = sealed
        report.finished = True
        self.tracer.instant(
            "failover.rebuild_done", track="failure", node=self.node_id,
            keys=len(keys), sealed=sealed,
        )
        return report

    def rebuild_tick(self, max_keys: int = 64) -> str:
        """Advance background re-replication by one increment.

        State machine the serving path can poke between requests:
        ``"idle"`` (nothing to do), ``"started"`` (census taken),
        ``"copying"`` (one round counted), ``"done"`` (backup installed
        this tick). Safe to call anytime; never raises for liveness —
        a dead primary simply reports ``"idle"``.
        """
        if self._primary_dead or (not self.degraded and not self._rebuilding):
            return "idle"
        if not self._rebuilding:
            self.begin_rebuild()
            return "started"
        if self.rebuild_step(max_keys):
            return "copying"
        self.finish_rebuild()
        return "done"

    def rebuild_backup(self) -> RebuildReport:
        """Run a whole rebuild to completion (synchronous convenience)."""
        self.begin_rebuild()
        return self.finish_rebuild()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self.primary.num_entries

    @property
    def latest_completed_batch(self) -> int:
        """Newest trained batch (primary's view; replicas agree)."""
        return self.primary.latest_completed_batch

    @property
    def metrics(self):
        """Primary's stat bundle (what the cluster aggregates)."""
        return self.primary.metrics

    @property
    def pool(self):
        """The primary's PMem pool (coordinator-pool reads, recovery)."""
        return self.primary.pool

    @property
    def store(self):
        """The primary's versioned store — read-only use (entry sizes);
        mutations must go through mirrored node methods."""
        return self.primary.store

    @property
    def cache(self):
        """The primary's DRAM cache — read-only use (occupancy gauges);
        mutations must go through mirrored node methods."""
        return self.primary.cache

    @property
    def coordinator(self):
        """The primary's checkpoint coordinator — read-only use
        (``last_completed``); mutations must go through mirrored node
        methods (:meth:`set_external_barrier`, :meth:`seal_at`, …)."""
        return self.primary.coordinator

    def read_weights(self, key: int) -> np.ndarray:
        return self.primary.read_weights(key)

    def state_snapshot(self) -> dict[int, np.ndarray]:
        return self.primary.state_snapshot()

    def verify_replicas_identical(self) -> None:
        """Assert primary and backup hold bitwise-equal state.

        Raises:
            ServerError: divergence (a replication bug) was found.
        """
        if self.backup is None:
            raise ServerError("no backup to compare (degraded mode)")
        primary_state = self.primary.state_snapshot()
        backup_state = self.backup.state_snapshot()
        if set(primary_state) != set(backup_state):
            raise ServerError("replicas hold different key sets")
        for key, weights in primary_state.items():
            if not np.array_equal(weights, backup_state[key]):
                raise ServerError(f"replicas diverged on key {key}")


def _empty_replica(primary: PSNode) -> PSNode:
    """An empty node with ``primary``'s exact parameters (the cache
    config and optimizer PSNode normalized), for a backup to fill."""
    return PSNode(
        primary.node_id, primary.server_config, primary.cache_config,
        primary.optimizer, cluster_mode=primary.coordinator.cluster_mode,
        tracer=primary.tracer,
    )


#: Simulated failover cost: lease expiry detection + client redirect.
FAILOVER_SECONDS = 0.5


def replication_vs_recovery_seconds(
    *,
    entries: int,
    entry_bytes: int,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> tuple[float, float]:
    """(failover seconds, checkpoint-recovery seconds) at a given scale.

    The quantitative version of the trade-off: replication answers a
    failure in :data:`FAILOVER_SECONDS` regardless of model size, while
    recovery scales with the table (Figure 14's 380 s at 2.1 B entries)
    — bought with 2x machines and doubled write work.
    """
    from repro.core.recovery import estimate_recovery_seconds

    recovery = estimate_recovery_seconds(
        entries=entries, versions=entries, entry_bytes=entry_bytes,
        calibration=calibration,
    )
    return FAILOVER_SECONDS, recovery
