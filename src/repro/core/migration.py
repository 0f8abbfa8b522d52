"""Live shard migration: elastic scale-out / scale-in of a PS cluster.

The paper scales synchronous DLRM training by hashing each embedding id
to a PS node (Section IV), but a static ``mix64(key) % num_nodes``
partition remaps almost every key when the node count changes. Every
cluster here routes with the
:class:`~repro.core.sharding.HashPartitioner` (jump consistent hash:
``n -> n+1`` moves ~``1/(n+1)`` of the keys, all onto the new node),
and this module's :class:`ShardMigrator` re-shards a *running* cluster
without losing or duplicating a single update.

Protocol (labels in :data:`MIGRATION_STEPS`, in execution order):

========== ==========================================================
Step        What happens
========== ==========================================================
barrier     Quiesce at a batch barrier: a cluster-wide barrier
            checkpoint at batch ``B`` flushes the rows it waits for,
            and every export flushes the moved keys' dirty resident
            rows (in the middle of a batch, the rows its pulls
            created), so each moved key's newest durable version *is*
            its live state.
provision   Scale-out: build the empty new node (highest id).
            Scale-in: pick the surviving owners of the leaving
            node's keys under the target ring.
transfer    Copy (not move) every retained version of each moved key
            — weights, optimizer state and version tags travel
            together — to its new owner. ``mid_transfer`` labels the
            partially-copied state for the crash-point harness.
seal        Persist the barrier's *Checkpointed Batch ID* on the new
            node's pool, so cluster-min recovery on the target ring
            is well-defined. (No-op for scale-in: survivors sealed
            at the barrier.)
commit      ONE atomic root-field write of the packed ring state
            (epoch, num_nodes) on the coordinator pool.
            This is the point of no return: recovery lands on the
            old ring before it and on the new ring after it.
cleanup     End the dual-ownership window: sources drop the moved
            keys from every tier. Until then both copies exist; the
            commit swapped the cluster's routing with the ring word,
            so no request reaches a dropped copy.
done        Migration complete; training resumes.
========== ==========================================================

A shard is reached one way: through the cluster facade's ``_shard_*``
hooks (:class:`~repro.core.server.OpenEmbeddingServer`), so the same
migrator moves entries by node calls in process and as ``Migrate`` RPCs
— retried and deduplicated like training traffic — on a
:class:`~repro.network.frontend.RemotePSClient`.

Crash consistency: every step is labelled, and the scenario engine
(``tests/harness/scenario.py``) kills the cluster at each label.
Because transfer copies and the ring commit is a single untearable
word, :meth:`OpenEmbeddingServer.recover
<repro.core.server.OpenEmbeddingServer.recover>` always lands on a
consistent pre- or post-migration ring, then purges any dual-ownership
leftovers the crash stranded on non-owner shards. The crash-point sweep asserts
the recovered-and-replayed weights are *bitwise* identical to an
unsharded reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import ServerConfig
from repro.core.ps_node import PSNode
from repro.core.server import OpenEmbeddingServer
from repro.errors import ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.pool import PmemPool

MIGRATION_STEPS = (
    "barrier",
    "provision",
    "transfer",
    "mid_transfer",
    "seal",
    "commit",
    "cleanup",
    "done",
)
"""Every labelled step of the migration protocol, in execution order.

The crash-point sweep (``tests/test_migration_crashpoints.py``) derives
its schedule from this tuple, so adding a step here automatically adds
it to the crash matrix.
"""


@dataclass(frozen=True)
class MigrationReport:
    """What one migration did (functional accounting, not timing)."""

    direction: str  # "scale_out" | "scale_in"
    from_nodes: int
    to_nodes: int
    barrier_batch: int
    ring_epoch: int
    keys_moved: int
    versions_moved: int
    bytes_moved: int
    keys_total: int

    @property
    def moved_fraction(self) -> float:
        """Fraction of the resident keyspace that changed owner."""
        if self.keys_total == 0:
            return 0.0
        return self.keys_moved / self.keys_total


class ShardMigrator:
    """Executes live scale-out / scale-in against a running cluster.

    Args:
        cluster: the :class:`OpenEmbeddingServer` (or its RPC subclass)
            to reshard; entries travel through its ``_shard_export`` /
            ``_shard_ingest`` / ``_shard_drop`` hooks as one
            :class:`~repro.pmem.space.EntryBlock` per move.
        on_step: hook invoked with each label *before* the step runs —
            the crash-point scheduler plugs in here.
        tracer: each step emits a ``migration.<label>`` instant on the
            ``migration`` track, and the whole run is a
            ``migration.run`` span.
        recorder: optional
            :class:`~repro.obs.flightrec.FlightRecorder`; every step
            lands in its ring and an aborted migration (any exception
            out of a step, including a crash-point kill) dumps the
            window with trigger ``migration_abort`` naming the step
            that was executing. Defaults to the cluster's ``recorder``
            attribute when it has one.
    """

    def __init__(
        self,
        cluster: OpenEmbeddingServer,
        on_step: Callable[[str], None] | None = None,
        tracer: Tracer | None = None,
        recorder=None,
    ):
        self.cluster = cluster
        self.on_step = on_step
        self.tracer = tracer if tracer is not None else getattr(
            cluster, "tracer", NULL_TRACER
        )
        self.recorder = recorder if recorder is not None else getattr(
            cluster, "recorder", None
        )
        self._current_step: str | None = None
        #: The node being provisioned by an in-flight scale-out; a crash
        #: handler collects its pool alongside the cluster's so
        #: :meth:`OpenEmbeddingServer.recover` sees every surviving DIMM.
        self.pending_target: PSNode | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def scale_out(self) -> MigrationReport:
        """Grow the cluster by one node (ids stay contiguous)."""
        n = self.cluster.server_config.num_nodes
        new_cfg = dataclasses.replace(self.cluster.server_config, num_nodes=n + 1)
        with self.tracer.span(
            "migration.run", track="migration", direction="scale_out",
            from_nodes=n, to_nodes=n + 1,
        ):
            return self._migrate("scale_out", new_cfg)

    def scale_in(self) -> MigrationReport:
        """Shrink the cluster by one node (the highest id leaves)."""
        n = self.cluster.server_config.num_nodes
        if n < 2:
            raise ServerError("cannot scale in a single-node cluster")
        new_cfg = dataclasses.replace(self.cluster.server_config, num_nodes=n - 1)
        with self.tracer.span(
            "migration.run", track="migration", direction="scale_in",
            from_nodes=n, to_nodes=n - 1,
        ):
            return self._migrate("scale_in", new_cfg)

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------

    def _migrate(self, direction: str, new_cfg: ServerConfig) -> MigrationReport:
        try:
            return self._migrate_steps(direction, new_cfg)
        except BaseException:
            # An aborted migration (crash-point kill, transport error,
            # routing bug) is exactly what the flight recorder exists
            # for: dump the window naming the step that was executing.
            if self.recorder is not None:
                self.recorder.record(
                    "migration",
                    "abort",
                    direction=direction,
                    step=self._current_step,
                )
                self.recorder.dump(
                    "migration_abort",
                    direction=direction,
                    step=self._current_step,
                )
            raise

    def _migrate_steps(self, direction: str, new_cfg: ServerConfig) -> MigrationReport:
        cluster = self.cluster
        old_n = cluster.server_config.num_nodes
        new_n = new_cfg.num_nodes
        new_ring = cluster.partitioner.with_nodes(new_n)
        scale_out = new_n > old_n

        # -- barrier: quiesce training at a batch boundary ------------
        self._step("barrier")
        # Fold buffered pushes first: read before the fold, the watermarks
        # could call a cluster quiesced while contributions still queue
        # on shards whose keys are about to move.
        cluster.flush_aggregation()
        latest = cluster.latest_completed_batch
        completed = cluster.global_completed_checkpoint
        if latest >= 0 and completed == latest:
            # Already quiesced at a durable barrier (e.g. back-to-back
            # migrations): every cache was flushed when that checkpoint
            # completed and no push has landed since, so the stores
            # already hold the live state.
            barrier_batch = completed
        else:
            barrier_batch = cluster.barrier_checkpoint()

        # -- provision ------------------------------------------------
        self._step("provision")
        if scale_out:
            target = cluster.provision_node(old_n, new_cfg)
            self.pending_target = target
            node_for = lambda nid: target if nid == old_n else cluster.nodes[nid]
        else:
            node_for = lambda nid: cluster.nodes[nid]

        # Plan the moves: (source node, new owner id, keys). Every node's
        # keys can leave on scale-out, only the leaving node's on
        # scale-in; the split keeps slot order within each owner.
        owned = [(node, node.owned_keys()) for node in cluster.nodes]
        keys_total = sum(len(keys) for __, keys in owned)
        moves: list[tuple[PSNode, int, np.ndarray]] = [
            (source, owner, keys)
            for source, held in (owned if scale_out else owned[-1:])
            for owner, keys in enumerate(new_ring.split(held)[0])
            if owner != source.node_id and len(keys)
        ]

        # -- transfer: copy, never move -------------------------------
        self._step("transfer")
        keys_moved = versions_moved = 0
        for i, (source, owner, keys) in enumerate(moves):
            block = cluster._shard_export(source, keys)
            cluster._shard_ingest(node_for(owner), block)
            keys_moved += len(keys)
            versions_moved += block.batch_ids.size
            if i == 0:
                # Label the partially-transferred state exactly once so
                # the crash sweep exercises a half-copied cluster.
                self._step("mid_transfer")

        # -- seal: make the target recoverable at the barrier ---------
        self._step("seal")
        if scale_out:
            # One node-level call (mirrored to a replicated target's
            # backup) instead of reaching into store/coordinator guts.
            target.seal_at(barrier_batch)

        # -- commit: ONE atomic ring-state write ----------------------
        self._step("commit")
        if scale_out:
            new_nodes = list(cluster.nodes) + [target]
        else:
            new_nodes = list(cluster.nodes[:-1])
        epoch = cluster.commit_ring(new_cfg, new_nodes)
        self.pending_target = None

        # -- cleanup: end the dual-ownership window -------------------
        self._step("cleanup")
        member_ids = {node.node_id for node in new_nodes}
        for source, __, keys in moves:
            if source.node_id in member_ids:
                cluster._shard_drop(source, keys)
            else:
                # Scale-in: the source left the membership at commit, so
                # releasing its copies is a local decommission wipe, not
                # an RPC to a cluster member.
                source.drop_keys(keys)

        self._step("done")
        entry_bytes = new_nodes[0].store.entry_bytes if new_nodes else 0
        return MigrationReport(
            direction=direction,
            from_nodes=old_n,
            to_nodes=new_n,
            barrier_batch=barrier_batch,
            ring_epoch=epoch,
            keys_moved=keys_moved,
            versions_moved=versions_moved,
            bytes_moved=versions_moved * entry_bytes,
            keys_total=keys_total,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _step(self, label: str, **info) -> None:
        self._current_step = label
        if self.recorder is not None:
            self.recorder.record("migration", label, **info)
        if self.on_step is not None:
            self.on_step(label)
        self.tracer.instant(f"migration.{label}", track="migration", **info)

    def crash(self) -> list[PmemPool]:
        """Kill the cluster mid-migration; every pool survives.

        Returns pools in node-id order, including a pending (not yet
        committed) scale-out target's pool as the last element — the
        exact list :meth:`OpenEmbeddingServer.recover` expects.
        """
        pools = self.cluster.crash()
        if self.pending_target is not None:
            pools.append(self.pending_target.crash())
            self.pending_target = None
        return pools

