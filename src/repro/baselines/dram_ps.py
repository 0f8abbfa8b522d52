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

from repro.baselines.block import BlockPSNode
from repro.baselines.incremental import CheckpointStats, IncrementalCheckpointer
from repro.config import ServerConfig
from repro.core.arena import EmbeddingArena
from repro.core.entry import Location
from repro.core.hash_index import HashIndex
from repro.core.optimizers import PSOptimizer
from repro.core.serving_backend import LookupResult
from repro.errors import CheckpointError
from repro.pmem.pool import PmemPool
from repro.simulation.device import MemoryDevice, PMEM_SPEC


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
        self.checkpointer = IncrementalCheckpointer(
            checkpoint_pool, self.entry_bytes, self._read_state
        )

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
            CheckpointError: no committed checkpoint, or ``snapshot_id``
                names any checkpoint other than the retained one.
        """
        latest = self.checkpointer.last_checkpoint_batch
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
        self.index = HashIndex()
        self.arena = EmbeddingArena(self.dim, self.state_width)
        pool = self.checkpointer.pool
        pool.crash()
        return pool

    @classmethod
    def recover(
        cls,
        checkpoint_pool: PmemPool,
        server_config: ServerConfig,
        optimizer: PSOptimizer | None = None,
    ) -> tuple["DRAMPSNode", int]:
        """Rebuild a node by replaying the checkpoint file into DRAM.

        Returns ``(node, checkpoint_batch_id)``.

        Raises:
            RecoveryError: no checkpoint was committed before the crash.
        """
        batch_id, state = IncrementalCheckpointer.restore_from_pool(checkpoint_pool)
        node = cls(server_config, optimizer, checkpoint_pool=checkpoint_pool)
        keys = np.fromiter(state, dtype=np.uint64, count=len(state))
        rows = node.arena.alloc_many(len(keys))
        node.arena.data[rows] = np.reshape(list(state.values()), (len(keys), node.arena.row_width))
        slots = node.index.insert_many(keys, cls.LOCATION)
        node.index.columns.row[slots] = rows
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
        self.checkpointer.mark_dirty(keys)
        return rows

    def _read(self, rows: np.ndarray) -> np.ndarray:
        return self.arena.data[rows]

    def _write(self, keys: np.ndarray, rows: np.ndarray, block: np.ndarray, batch_id: int) -> None:
        self.arena.data[rows] = block
        self.checkpointer.mark_dirty(keys)

    def _durable(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.checkpointer.read_entries(keys)

    def _read_state(self, keys: Iterable[int]) -> dict[int, np.ndarray]:
        keys = np.asarray(keys, dtype=np.uint64)
        rows = self.arena.data[self.index.columns.row[self.index.lookup(keys)]]
        return dict(zip(keys.tolist(), rows))
