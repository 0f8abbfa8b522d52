"""'PMem-Hash': entries directly in a PMem hash, no DRAM cache.

Section III-B builds this from Intel's libpmemobj concurrent hash map
to show the raw penalty of putting the parameter server on PMem: every
pull reads PMem and every push is a PMem read-modify-write, all on the
critical path.

Every entry's row is one slot of the pool's
:class:`~repro.pmem.pool.EntrySlab`, rewritten in place by every push
and never versioned; the hash index stands for the persistent hash
map's buckets, so it survives a crash with the slots it points at.
Observation 2's consistency point is embodied here: although every write
is durable, a crash mid-stream leaves a *mix* of batches — there is no
batch id to recover to. :meth:`crash` and :meth:`surviving_state` let
tests demonstrate that the surviving state is not batch-consistent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.block import BlockPSNode
from repro.config import ServerConfig
from repro.core.entry import Location
from repro.core.optimizers import PSOptimizer
from repro.core.serving_backend import LookupResult
from repro.errors import CheckpointError
from repro.pmem.pool import PmemPool


class PMemHashNode(BlockPSNode):
    """All-PMem parameter server (no cache, no checkpoint support)."""

    LOCATION = Location.PMEM

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        optimizer: PSOptimizer | None = None,
        pool: PmemPool | None = None,
    ):
        super().__init__(server_config, optimizer)
        # Note: not `pool or ...` — an empty PmemPool is falsy (__len__).
        self.pool = (
            pool
            if pool is not None
            else PmemPool(self.server_config.pmem_capacity_bytes)
        )
        self.slab = self.pool.slab(self.entry_bytes)

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
        self, keys: Sequence[int], snapshot_id: int | None = None, *, mixed=None
    ) -> LookupResult:
        """Read live pool state (NOT batch-consistent — Observation 2).

        The snapshot pin is validated for range but cannot actually pin:
        with in-place updates and no versioning, the rows returned are
        whatever batch each entry last saw. This is the baseline's
        consistency gap that OpenEmbedding's versioned store closes.
        Missing keys serve the deterministic key-seeded initializer.
        One pool routes nothing, so ``mixed`` goes unread.

        Raises:
            CheckpointError: ``snapshot_id`` is negative or newer than
                any completed batch.
        """
        latest = self.latest_completed_batch
        if snapshot_id is None:
            snapshot_id = latest
        if snapshot_id < 0 or snapshot_id > latest:
            raise CheckpointError(
                f"snapshot {snapshot_id} is not a completed batch "
                f"(newest completed: {latest})"
            )
        return self._serve(keys, snapshot_id)

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
        """The post-crash contents: whatever batch each entry last saw,
        read off the slab's live slots.

        There is no checkpoint id and no way to roll back — tests use
        this to show the state mixes batches (not batch-consistent).
        """
        live = np.flatnonzero(self.slab.live)
        return dict(zip(self.slab.key[live].tolist(), self.slab.data[live, : self.dim]))

    # ------------------------------------------------------------------
    # the rows: one slab slot per key, rewritten in place
    # ------------------------------------------------------------------

    def _place(self, keys: np.ndarray, block: np.ndarray, batch_id: int) -> np.ndarray:
        return self.slab.write(keys, batch_id, block)

    def _read(self, rows: np.ndarray) -> np.ndarray:
        return self.slab.read(rows)

    def _write(self, keys: np.ndarray, rows: np.ndarray, block: np.ndarray, batch_id: int) -> None:
        self.slab.rewrite(rows, batch_id, block)
        self.metrics.pmem_flush_entries += len(rows)

    def _durable(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        slots = self.index.lookup(keys)
        found = slots >= 0
        return found, self.slab.read(self.index.columns.row[slots[found]])
