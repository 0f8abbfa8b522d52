"""'DRAM-PS': the classic pure-DRAM parameter server baseline.

Table III row 1: a DRAM-based hash of embedding entries, checkpointed
with the incremental scheme to a separate checkpoint device. This is
the paper's performance upper bound (no PMem on any path) and its cost
lower bound's counterpoint (DRAM capacity is expensive — Table V needs
two large-DRAM servers where one PMem server suffices).

The incremental checkpoint is Table IV's CheckFreq baseline (Mohan et
al., FAST'21): on every trigger, training pauses while the entries
changed since the last checkpoint are dumped to the checkpoint device
(the pause, and its I/O contention when that device is the training
PMem, are what Figure 12 quantifies). The dump is stored the one way
every durable row is: as versions in a
:class:`~repro.pmem.space.VersionedEntryStore` on the checkpoint pool,
each key's newest version addressed by the ``head`` column of the
node's one hash index. The previous checkpoint's versions stay retained
until the new one commits by one atomic root write of the
*Checkpointed Batch ID* (Algorithm 2 line 25), so a crash mid-dump
recovers the previous checkpoint in full.

The node shares the deterministic key-seeded initializer and PS-side
optimizer with :class:`repro.core.ps_node.PSNode`, so weight-for-weight
comparisons in tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.block import BlockPSNode
from repro.config import ServerConfig
from repro.core.arena import EmbeddingArena
from repro.core.entry import Location
from repro.core.hash_index import HashIndex
from repro.core.optimizers import PSOptimizer
from repro.core.serving_backend import LookupResult
from repro.errors import CheckpointError, RecoveryError
from repro.pmem.pool import PmemPool
from repro.pmem.space import NO_VERSION, VersionedEntryStore
from repro.simulation.device import MemoryDevice, PMEM_SPEC

_CKPT_EPOCH_FIELD = "incremental_ckpt_epoch"


@dataclass(frozen=True)
class CheckpointStats:
    """One incremental checkpoint's footprint."""

    batch_id: int
    entries_written: int
    bytes_written: int
    sim_seconds: float


class DRAMPSNode(BlockPSNode):
    """A pure-DRAM PS node with incremental checkpointing.

    Every entry's row lives in one :class:`EmbeddingArena`, so every
    access is a hit.

    Args:
        server_config: dim / seed / init scale (pool sizing unused —
            everything lives in DRAM).
        optimizer: PS-side update rule.
        checkpoint_pool: the checkpoint device; defaults to a PMem pool
            (Section VI-A fixes PMem as every configuration's
            checkpoint device).
        dram_capacity_bytes: optional hard DRAM budget; exceeding it
            raises — this is how the "500 GB model does not fit"
            scenario of Section VI-F is expressed.
    """

    LOCATION = Location.DRAM

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        optimizer: PSOptimizer | None = None,
        checkpoint_pool: PmemPool | None = None,
        dram_capacity_bytes: int | None = None,
    ):
        super().__init__(server_config, optimizer)
        self.dram_capacity_bytes = dram_capacity_bytes
        self.arena = EmbeddingArena(self.dim, self.state_width)
        if checkpoint_pool is None:
            checkpoint_pool = PmemPool(
                self.server_config.pmem_capacity_bytes,
                MemoryDevice(PMEM_SPEC),
            )
        self.store = VersionedEntryStore(checkpoint_pool, self.entry_bytes)
        self.store.set_retention_barriers((self.latest_serving_snapshot,))
        # The key arrays marked since the last checkpoint, as marked.
        self._marked: list[np.ndarray] = []

    @property
    def latest_serving_snapshot(self) -> int:
        """Batch id of the newest durable incremental checkpoint."""
        return self.store.checkpointed_batch_id()

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of committed checkpoints (staleness clock;
        durable — the epoch root field advances with each commit)."""
        return self.store.pool.root.get(_CKPT_EPOCH_FIELD, 0)

    @property
    def dirty_count(self) -> int:
        """Distinct keys marked since the last checkpoint."""
        return len(self._dirty())

    def lookup(
        self, keys: Sequence[int], snapshot_id: int | None = None, *, mixed=None
    ) -> LookupResult:
        """Snapshot-pinned read from the durable checkpoint.

        A committed checkpoint recycles the versions of the one before
        it, so the only servable pin is :attr:`latest_serving_snapshot`;
        older pins raise. Keys never checkpointed serve the
        deterministic key-seeded initializer. One store routes nothing,
        so ``mixed`` goes unread.

        Raises:
            CheckpointError: no committed checkpoint, or ``snapshot_id``
                names any checkpoint other than the retained one.
        """
        latest = self.latest_serving_snapshot
        if snapshot_id is None:
            snapshot_id = latest
        if snapshot_id < 0 or snapshot_id != latest:
            raise CheckpointError(
                f"snapshot {snapshot_id} is not servable (incremental "
                f"checkpointing retains only checkpoint {latest})"
            )
        return self._serve(keys, snapshot_id)

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------

    def checkpoint(self, batch_id: int | None = None) -> CheckpointStats:
        """Synchronous incremental checkpoint (training is paused).

        The marked keys' rows are put as version ``batch_id`` while the
        previous checkpoint's versions stay retained; the root write of
        the *Checkpointed Batch ID* commits them, and only then are the
        superseded versions recycled.
        """
        if batch_id is None:
            batch_id = self.latest_completed_batch
        keys = self._dirty()
        slots = self.index.lookup(keys)
        columns, store = self.index.columns, self.store
        device = store.pool.device
        busy = device.busy_seconds
        columns.head[slots] = store.put(
            keys, columns.head[slots], batch_id, self.arena.data[columns.row[slots]]
        )
        elapsed = device.busy_seconds - busy
        store.set_checkpointed_batch_id(batch_id)
        store.pool.root.set(_CKPT_EPOCH_FIELD, self.checkpoints_completed + 1)
        store.set_retention_barriers((batch_id,))
        store.recycle()
        self._marked.clear()
        self.metrics.checkpoints_completed += 1
        return CheckpointStats(
            batch_id=batch_id,
            entries_written=len(keys),
            bytes_written=len(keys) * self.entry_bytes,
            sim_seconds=elapsed,
        )

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
        self.index = HashIndex()
        self.arena = EmbeddingArena(self.dim, self.state_width)
        pool = self.store.pool
        pool.crash()
        return pool

    @classmethod
    def recover(
        cls,
        checkpoint_pool: PmemPool,
        server_config: ServerConfig,
        optimizer: PSOptimizer | None = None,
    ) -> tuple["DRAMPSNode", int]:
        """Rebuild a node by replaying the checkpoint into DRAM: the
        three store calls of :func:`repro.core.recovery.recover_node`
        (discard what the commit did not cover, rebuild the chains,
        read every key's newest surviving version).

        Returns ``(node, checkpoint_batch_id)``.

        Raises:
            RecoveryError: no checkpoint was committed before the crash.
        """
        node = cls(server_config, optimizer, checkpoint_pool=checkpoint_pool)
        store = node.store
        batch_id = store.checkpointed_batch_id()
        if batch_id < 0:
            raise RecoveryError("no incremental checkpoint committed")
        store.discard_newer_than(batch_id)
        keys, heads, __ = store.rebuild_from_pool()
        __, state = store.read_latest(heads)
        rows = node.arena.alloc_many(len(keys))
        node.arena.data[rows] = state
        slots = node.index.insert_many(keys, cls.LOCATION)
        node.index.columns.row[slots] = rows
        node.index.columns.head[slots] = heads
        node.latest_completed_batch = batch_id
        return node, batch_id

    @property
    def dram_bytes_used(self) -> int:
        return len(self.index) * self.entry_bytes

    # ------------------------------------------------------------------
    # the rows: one arena
    # ------------------------------------------------------------------

    def _place(self, keys: np.ndarray, block: np.ndarray, batch_id: int) -> np.ndarray:
        if (
            self.dram_capacity_bytes is not None
            and self.dram_bytes_used + len(keys) * self.entry_bytes > self.dram_capacity_bytes
        ):
            raise MemoryError(
                f"DRAM-PS out of memory: {self.dram_bytes_used} bytes used, "
                f"{len(keys)} entries more asked, capacity {self.dram_capacity_bytes}"
            )
        rows = self.arena.alloc_many(len(keys))
        self.arena.data[rows] = block
        self._marked.append(keys)
        return rows

    def _read(self, rows: np.ndarray) -> np.ndarray:
        return self.arena.data[rows]

    def _write(self, keys: np.ndarray, rows: np.ndarray, block: np.ndarray, batch_id: int) -> None:
        self.arena.data[rows] = block
        self._marked.append(keys)

    def _durable(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``keys`` as of the committed checkpoint: a dump
        the root write has not yet committed is not served."""
        slots = self.index.lookup(keys)
        heads = np.where(slots >= 0, self.index.columns.head[slots], -1)
        versions, rows = self.store.read_at_most(heads, self.latest_serving_snapshot)
        found = versions != NO_VERSION
        return found, rows[found]

    def _dirty(self) -> np.ndarray:
        """The distinct keys marked since the last checkpoint, ascending."""
        return np.unique(np.concatenate([np.empty(0, np.uint64), *self._marked]))
