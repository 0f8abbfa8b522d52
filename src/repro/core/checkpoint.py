"""Checkpoint coordination (the *checkpoint manager* of Figure 4).

The coordinator owns the checkpoint request queue and the durable
*Checkpointed Batch ID*. Requests are issued manually or by a periodic
trigger (the simulator's ``PeriodicTimer``). Completion is decided by
the cache — one predicate over its columns after every maintenance
round and at barriers: no resident entry still owes the checkpoint
(:meth:`repro.core.cache.PipelinedCache._drain`) — and delegated back
here, one :meth:`CheckpointCoordinator.complete_head` per checkpoint,
which then

1. atomically persists the checkpointed batch id in the PMem root,
2. pops the request queue, and
3. tells the space manager which versions must now be retained and,
   when the completion retired the previous checkpoint (standalone
   nodes), recycles the rest. A cluster-mode shard's superseded
   checkpoints are released by the external barrier instead and
   reclaimed when the next checkpoint is requested.
"""

from __future__ import annotations

from repro.errors import CheckpointError
from repro.core.queues import CheckpointRequestQueue
from repro.pmem.space import NO_CHECKPOINT, VersionedEntryStore


class CheckpointCoordinator:
    """Tracks requested / on-going / completed checkpoints for one node.

    Attributes:
        queue: pending checkpoint batch ids (head = on-going).
        last_completed: batch id of the newest durable checkpoint, read
            back from the PMem root at construction so a recovered node
            resumes with the right barrier.
    """

    def __init__(self, store: VersionedEntryStore, cluster_mode: bool = False):
        self.store = store
        self.cluster_mode = cluster_mode
        self.queue = CheckpointRequestQueue()
        self.last_completed = store.checkpointed_batch_id()
        self.completed_count = 0
        self._external_barrier: int | None = None
        #: cluster mode: completed checkpoint ids not yet confirmed
        #: superseded by the external (cluster-wide) barrier.
        self._completed_history: list[int] = (
            [] if self.last_completed < 0 else [self.last_completed]
        )
        self._sync_barriers()

    def set_external_barrier(self, batch_id: int | None) -> None:
        """Retain versions needed by a *cluster-wide* checkpoint.

        In a sharded deployment a checkpoint is only globally successful
        once every node completed it; a node that races ahead must keep
        the versions of every checkpoint it completed until the cluster
        confirms a newer one is globally done — otherwise completing a
        local checkpoint N+1 would recycle N's versions while N is still
        the only batch every shard can restore. The server facade
        maintains this barrier (the cluster-wide completed minimum);
        history at or above it stays retained.
        """
        self._external_barrier = batch_id
        if batch_id is not None:
            self._completed_history = [
                h for h in self._completed_history if h >= batch_id
            ]
        self._sync_barriers()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def request(self, batch_id: int) -> None:
        """Queue a checkpoint of the state as of ``batch_id``.

        Raises:
            CheckpointError: ``batch_id`` is not newer than the last
                completed checkpoint (nothing to do) or than a queued
                request.
        """
        if batch_id <= self.last_completed:
            raise CheckpointError(
                f"checkpoint {batch_id} not newer than completed "
                f"{self.last_completed}"
            )
        if self.cluster_mode:
            # The external barrier releases superseded checkpoints
            # without reclaiming them. Reclaim before this checkpoint's
            # flush writes a new generation of versions, so a shard
            # never holds three.
            self.store.recycle()
        self.queue.push(batch_id)
        self._sync_barriers()

    def head(self) -> int | None:
        """Batch id of the on-going checkpoint, or None when idle."""
        return self.queue.head()

    def max_pending(self) -> int | None:
        """Largest queued checkpoint id (None when idle) — what a
        periodic trigger compares against so it never re-queues a batch.
        """
        pending = self.queue.pending()
        return pending[-1] if pending else None

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def complete_head(self) -> int:
        """Finish the on-going checkpoint (Algorithm 2 lines 25-27).

        Returns the completed batch id.
        """
        batch_id = self.queue.pop()
        self.store.set_checkpointed_batch_id(batch_id)
        self.last_completed = batch_id
        self.completed_count += 1
        self._completed_history.append(batch_id)
        self._sync_barriers()
        if not self.cluster_mode:
            # Standalone, completing this checkpoint retired the previous
            # one. In cluster mode completion retires nothing (the id only
            # moves from the queue into the history).
            self.store.recycle()
        return batch_id

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def has_completed_any(self) -> bool:
        return self.last_completed != NO_CHECKPOINT

    def _sync_barriers(self) -> None:
        """Push the retention barrier set down to the space manager.

        Standalone (the default): pending requests + the last completed
        checkpoint. Cluster mode: pending requests + every completed
        checkpoint the external barrier has not yet superseded — the
        conservative set a shard must keep while the cluster-wide
        minimum lags its own progress.
        """
        barriers = set(self.queue.pending())
        if self.cluster_mode:
            barriers.update(self._completed_history)
        elif self.last_completed != NO_CHECKPOINT:
            barriers.add(self.last_completed)
        if self._external_barrier is not None and self._external_barrier >= 0:
            barriers.add(self._external_barrier)
        self.store.set_retention_barriers(tuple(barriers))
