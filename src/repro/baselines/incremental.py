"""CheckFreq-style incremental checkpointing (the paper's baseline).

"Incremental Checkpoint" in Table IV: the state-of-the-art scheme of
Mohan et al. (FAST'21) applied to the sparse features — on every
trigger, synchronously dump the entries *changed since the last
checkpoint* to the checkpoint device. The dump is transactional: a
crash mid-dump leaves the previous checkpoint intact.

Unlike OpenEmbedding's batch-aware scheme, this pauses training for the
duration of the dump and, when the checkpoint device is the same PMem
the training system lives on, its writes contend with training I/O —
the effect Figure 12 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import RecoveryError
from repro.pmem.persistence import Transaction
from repro.pmem.pool import PmemPool

_CKPT_BATCH_FIELD = "incremental_ckpt_batch_id"
_CKPT_EPOCH_FIELD = "incremental_ckpt_epoch"


@dataclass(frozen=True)
class CheckpointStats:
    """One incremental checkpoint's footprint."""

    batch_id: int
    entries_written: int
    bytes_written: int
    sim_seconds: float


class IncrementalCheckpointer:
    """Dumps dirty entries to a checkpoint pool, transactionally.

    Args:
        pool: the checkpoint device (a PMem or SSD-backed pool,
            dedicated — this is a *backup copy*, separate from any live
            training state).
        entry_bytes: payload size per entry.
        read_state: callback ``keys -> {key: packed row}`` reading
            the live state to snapshot. Called while training is paused
            (synchronous checkpointing), so the snapshot is
            batch-consistent by construction.
    """

    def __init__(
        self,
        pool: PmemPool,
        entry_bytes: int,
        read_state: Callable[[Iterable[int]], dict[int, np.ndarray]],
    ):
        self.pool = pool
        self.entry_bytes = entry_bytes
        self.read_state = read_state
        # The key arrays marked since the last checkpoint, as marked.
        self._marked: list[np.ndarray] = []
        self.stats_history: list[CheckpointStats] = []

    def mark_dirty(self, keys: Iterable[int]) -> None:
        """Record keys updated since the last checkpoint (one array op,
        however many keys)."""
        self._marked.append(np.asarray(keys, dtype=np.uint64))

    @property
    def last_checkpoint_batch(self) -> int:
        """Batch id of the latest committed checkpoint (-1 if none)."""
        return self.pool.root.get(_CKPT_BATCH_FIELD, -1)

    @property
    def checkpoint_epoch(self) -> int:
        """Monotone count of committed checkpoints (durable; survives
        restore — the epoch root field advances with each commit)."""
        return self.pool.root.get(_CKPT_EPOCH_FIELD, 0)

    def read_entries(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The durable checkpointed payloads of ``keys``: which keys were
        ever checkpointed, and their rows in order."""
        found = np.array([("ckpt", key) in self.pool for key in keys.tolist()], dtype=bool)
        rows = [self.pool.read(("ckpt", key)) for key in keys[found].tolist()]
        return found, np.reshape(rows, (len(rows), self.entry_bytes // 4))

    @property
    def dirty_count(self) -> int:
        return len(self._dirty())

    def _dirty(self) -> list[int]:
        """The distinct keys marked since the last checkpoint, ascending."""
        return np.unique(np.concatenate([np.empty(0, np.uint64), *self._marked])).tolist()

    def checkpoint(self, batch_id: int) -> CheckpointStats:
        """Synchronously dump the dirty set as of ``batch_id``.

        The dump is one transaction: the commit also bumps the durable
        checkpoint batch id, so a crash mid-dump recovers the *previous*
        checkpoint in full.
        """
        dirty = self._dirty()
        snapshot = self.read_state(dirty)
        elapsed = 0.0
        with Transaction(self.pool) as tx:
            for key in dirty:
                elapsed += tx.write(("ckpt", key), snapshot[key])
        # Root updates are atomic; ordering after the data drain makes
        # the new batch id visible only with its data.
        self.pool.root.set(_CKPT_BATCH_FIELD, batch_id)
        self.pool.root.set(
            _CKPT_EPOCH_FIELD, self.pool.root.get(_CKPT_EPOCH_FIELD, 0) + 1
        )
        self._marked.clear()
        stats = CheckpointStats(
            batch_id=batch_id,
            entries_written=len(dirty),
            bytes_written=len(dirty) * self.entry_bytes,
            sim_seconds=elapsed,
        )
        self.stats_history.append(stats)
        return stats

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(self) -> tuple[int, dict[int, np.ndarray]]:
        """Load the latest durable checkpoint.

        Returns ``(batch_id, {key: weights})``.

        Raises:
            RecoveryError: no checkpoint was ever committed.
        """
        try:
            batch_id = self.pool.root.get(_CKPT_BATCH_FIELD)
        except KeyError:
            raise RecoveryError("no incremental checkpoint committed") from None
        state: dict[int, np.ndarray] = {}
        for pool_key, value in self.pool.items():
            if isinstance(pool_key, tuple) and pool_key and pool_key[0] == "ckpt":
                state[pool_key[1]] = np.array(value)
        return batch_id, state

    @classmethod
    def restore_from_pool(
        cls, pool: PmemPool
    ) -> tuple[int, dict[int, np.ndarray]]:
        """Restore without a live checkpointer (post-crash path)."""
        dummy = cls(pool, entry_bytes=1, read_state=lambda keys: {})
        return dummy.restore()
