"""Space manager for versioned embedding entries on PMem.

Section V-C: *"we rely on the underlying space manager of PMem to
prevent them from being overwritten by the newer versions flushed to
PMem. The space manager will recycle the space of these entries once the
new checkpoint is done."*

Each flush of an entry creates a version tagged with the batch id it was
last updated in. The store retains, per key:

* the newest version overall (the running state), and
* for every *retention barrier* (an outstanding or last-completed
  checkpoint batch id), the newest version at or below that barrier —
  exactly what recovery to that checkpoint needs.

Put differently: a version ``x`` whose next-newer sibling is ``y`` is
retained iff some barrier lies in ``[x, y)``. Everything else is
recycled eagerly when its key is written, so steady-state footprint is
at most ``1 + len(barriers)`` versions per key.

**Layout.** A version is one slot of the pool's
:class:`~repro.pmem.pool.EntrySlab`; the slot header carries its key and
batch id. The store adds a volatile version index over the slots —
``key -> slot of the newest version`` plus, per slot, the slot of the
same key's next-older version — and speaks **blocks**: :meth:`put`,
:meth:`read_latest` and :meth:`read_at_most` take a sequence of keys and
cost one slab scatter or gather plus one index update, not a Python call
chain per row. Whole keys change stores as an :class:`EntryBlock`:
:meth:`export` gathers every retained version of some keys into four
columns and :meth:`ingest` scatters such a block in, which is all that
migration, replica rebuild and the wire ever see of an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.errors import PMemError, RecoveryError
from repro.pmem.pool import PmemPool

CHECKPOINT_ID_FIELD = "checkpointed_batch_id"
"""Root field holding the batch id of the last completed checkpoint."""

NO_CHECKPOINT = -1
"""Sentinel checkpoint id meaning 'no checkpoint has ever completed'."""

NO_VERSION = -1
"""What :meth:`VersionedEntryStore.read_at_most` reports for a key with
no version at or below its barrier (batch ids are non-negative)."""


@dataclass(frozen=True, eq=False)
class EntryBlock:
    """Every retained version of some keys, as four columns.

    The one format entries move in — store to store within a process,
    between replicas, or over the wire, where these columns *are* the
    arrays of a ``MigrateRequest(OP_PUT)`` / ``MigrateResponse`` body.
    ``keys[i]`` owns the next ``nversions[i]`` positions of
    ``batch_ids`` and ``rows``.
    """

    keys: np.ndarray  # u64[n]
    nversions: np.ndarray  # u32[n]
    batch_ids: np.ndarray  # i64[total], total = nversions.sum()
    rows: np.ndarray | None  # f32[total, width]; None = metadata-only

    def __len__(self) -> int:
        return len(self.keys)


NO_ENTRIES = EntryBlock(
    np.empty(0, np.uint64), np.empty(0, np.uint32), np.empty(0, np.int64), None
)
"""The block of no keys (what exporting nothing returns)."""


class VersionedEntryStore:
    """Versioned entry storage with checkpoint-aware retention.

    Args:
        pool: the persistent pool all versions live in.
        entry_bytes: payload size of one entry — the slot size of the
            pool's slab.

    The version index is volatile DRAM state; after a crash it is
    rebuilt by :meth:`rebuild_from_pool`.
    """

    def __init__(self, pool: PmemPool, entry_bytes: int):
        if entry_bytes <= 0:
            raise PMemError(f"entry_bytes must be positive, got {entry_bytes}")
        self.pool = pool
        self.entry_bytes = entry_bytes
        self.slab = pool.slab(entry_bytes)
        self._latest: dict[int, int] = {}
        self._older = np.full(self.slab.capacity, -1, dtype=np.intp)
        self._barriers = np.empty(0, dtype=np.int64)
        if CHECKPOINT_ID_FIELD not in pool.root.fields():
            pool.root.set(CHECKPOINT_ID_FIELD, NO_CHECKPOINT)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, keys: Sequence[int], versions, rows: np.ndarray | None) -> None:
        """Persist ``rows[i]`` as version ``versions[i]`` of ``keys[i]``.

        ``versions`` is one batch id for the whole block or one per key;
        ``rows`` is ``(len(keys), entry_bytes / 4)`` float32, or None in
        metadata-only mode. A key may repeat: the block then behaves
        like its rows put one after another. Versions of the written
        keys that no retention barrier protects are recycled.

        The block needs room for every version it adds before the ones
        it supersedes are freed, and is all or nothing about it.

        Raises:
            OutOfSpaceError: the pool cannot hold the new versions.
        """
        self._write(keys, versions, rows, prune=True)

    def ingest(self, block: EntryBlock) -> None:
        """:meth:`put` a block copied from another shard, WITHOUT pruning.

        Migration (``repro.core.migration``) transfers every retained
        version of a key verbatim — including versions protected by the
        source's barriers that this store does not know about yet — so
        the new owner can recover to exactly the same checkpoints the
        old owner could.
        """
        keys = np.repeat(block.keys, block.nversions)
        self._write(keys, block.batch_ids, block.rows, prune=False)

    def set_retention_barriers(self, barriers: tuple[int, ...]) -> None:
        """Declare which checkpoint batch ids must stay recoverable.

        Called by the checkpoint manager whenever the set of outstanding
        checkpoints (plus the last completed one) changes. Pruning on
        subsequent writes honours the new barrier set; existing excess
        versions are recycled lazily via :meth:`recycle`.
        """
        self._barriers = np.unique(np.asarray(barriers, dtype=np.int64))

    def drop_key(self, key: int) -> int:
        """Free *every* stored version of ``key``; returns versions freed.

        Used by live shard migration (``repro.core.migration``): after a
        key's entries have been copied to their new owner and the ring
        epoch has committed, the source shard drops its copies. Barriers
        are intentionally ignored — ownership has moved, so this shard
        will never be asked to recover the key.
        """
        slots = self._chain(key)
        if slots:
            del self._latest[key]
            self._free(np.asarray(slots, dtype=np.intp))
        return len(slots)

    def recycle(self) -> int:
        """Recycle all versions unprotected by the current barriers.

        Returns the number of versions freed. Invoked when a checkpoint
        completes ("the space manager will recycle the space of these
        entries once the new checkpoint is done"). Only keys holding
        more than one version are visited.
        """
        older = self._older
        linked = np.flatnonzero(self.slab.live & (older >= 0))
        pointed_at = np.zeros(len(older), dtype=bool)
        pointed_at[older[linked]] = True
        return self._prune(linked[~pointed_at[linked]])

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def has(self, key: int) -> bool:
        return key in self._latest

    def latest_versions(self) -> dict[int, int]:
        """``key -> batch id of its newest stored version``, every key."""
        slots = np.fromiter(self._latest.values(), np.intp, len(self._latest))
        return dict(zip(self._latest, self.slab.batch[slots].tolist()))

    def read_latest(
        self, keys: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Newest version of every key as ``(batch ids, rows)``.

        ``rows`` is a fresh ``(len(keys), entry_bytes / 4)`` array (None
        in metadata-only mode).

        Raises:
            KeyError: a key has no stored version.
        """
        keys = _key_list(keys)
        slots = np.fromiter(map(self._latest.__getitem__, keys), np.intp, len(keys))
        return self.slab.batch[slots], self.slab.read(slots)

    def read_at_most(
        self, keys: Sequence[int], barrier
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Newest version of every key with ``batch_id <= barrier``.

        ``barrier`` is one batch id or one per key. A key with no such
        version (or no version at all) reports :data:`NO_VERSION` and a
        zero row, and is not charged a read.
        """
        keys = _key_list(keys)
        n = len(keys)
        batch = self.slab.batch
        slots = self._at_most(
            np.fromiter(map(self._latest.get, keys, repeat(-1)), np.intp, n), barrier
        )
        found = slots >= 0
        if found.all():
            return batch[slots], self.slab.read(slots)
        stored = self.slab.read(slots[found])
        rows = None
        if stored is not None:
            rows = np.zeros((n, self.slab.width), dtype=np.float32)
            rows[found] = stored
        return np.where(found, batch[slots], NO_VERSION), rows

    def export(self, keys: Sequence[int]) -> EntryBlock:
        """Every stored version of ``keys``, oldest first within a key —
        the block :meth:`ingest` takes. A key with no version stays in
        the block with ``nversions`` 0."""
        keys = _key_list(keys)
        chains = [self._chain(key)[::-1] for key in keys]
        slots = np.fromiter(chain.from_iterable(chains), np.intp)
        return EntryBlock(
            keys=np.asarray(keys, dtype=np.uint64),
            nversions=np.fromiter(map(len, chains), np.uint32, len(keys)),
            batch_ids=self.slab.batch[slots],
            rows=self.slab.read(slots),
        )

    def keys(self) -> list[int]:
        """All keys with at least one stored version."""
        return list(self._latest)

    def versions_of(self, key: int) -> list[int]:
        """Sorted batch ids currently stored for ``key`` (may be empty)."""
        chain = np.asarray(self._chain(key)[::-1], dtype=np.intp)
        return self.slab.batch[chain].tolist()

    def total_versions(self) -> int:
        return self.slab.rows

    # ------------------------------------------------------------------
    # checkpoint id (root field)
    # ------------------------------------------------------------------

    def set_checkpointed_batch_id(self, batch_id: int) -> None:
        """Atomically persist the *Checkpointed Batch ID* (Alg. 2 l. 25)."""
        self.pool.root.set(CHECKPOINT_ID_FIELD, batch_id)

    def checkpointed_batch_id(self) -> int:
        """The durable last-completed checkpoint id (-1 if none)."""
        return self.pool.root.get(CHECKPOINT_ID_FIELD, NO_CHECKPOINT)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def rebuild_from_pool(self) -> None:
        """Rebuild the volatile version index from the slot headers.

        This is recovery step 2's first half: after
        :meth:`PmemPool.crash` the in-DRAM index is gone; one scan of
        the live slots' ``(key, batch_id)`` headers restores it.
        """
        slab = self.slab
        slots = np.flatnonzero(slab.live)
        keys = slab.key[slots]
        order = np.lexsort((slab.batch[slots], keys))
        slots, keys = slots[order], keys[order]
        same_key = keys[1:] == keys[:-1]
        self._older = np.full(slab.capacity, -1, dtype=np.intp)
        self._older[slots[1:][same_key]] = slots[:-1][same_key]
        newest = np.append(~same_key, True)[: len(slots)]
        self._latest = dict(zip(keys[newest].tolist(), slots[newest].tolist()))

    def discard_newer_than(self, checkpoint_id: int) -> int:
        """Drop all versions newer than ``checkpoint_id`` (recovery step 1).

        A key whose every version is newer (created after the
        checkpoint) disappears. Returns the number of versions discarded.
        """
        slab = self.slab
        keys = list(self._latest)
        slots = self._at_most(
            np.fromiter(self._latest.values(), np.intp, len(keys)), checkpoint_id
        )
        doomed = np.flatnonzero(slab.live & (slab.batch > checkpoint_id))
        self._free(doomed)
        self._latest = {
            key: slot for key, slot in zip(keys, slots.tolist()) if slot >= 0
        }
        return len(doomed)

    def recover(self) -> dict[int, int]:
        """Full recovery: scan, discard post-checkpoint versions.

        Returns ``key -> recovered batch_id`` for every surviving key.
        The caller (``repro.core.recovery``) then rebuilds the DRAM hash
        index from this mapping.
        """
        self.rebuild_from_pool()
        checkpoint_id = self.checkpointed_batch_id()
        if checkpoint_id == NO_CHECKPOINT:
            raise RecoveryError("no completed checkpoint recorded in PMem root")
        self.discard_newer_than(checkpoint_id)
        return self.latest_versions()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _write(self, keys, versions, rows, prune: bool) -> None:
        keys = _key_list(keys)
        n = len(keys)
        if n == 0:
            return
        versions = np.broadcast_to(np.asarray(versions, dtype=np.int64), (n,))
        if len(set(keys)) < n:
            # Repeated keys: one sub-block per occurrence rank (keys are
            # independent, so only each key's own order matters).
            self._check_room(keys, versions)
            seen: dict[int, int] = {}
            rank = np.empty(n, dtype=np.intp)
            for i, key in enumerate(keys):
                rank[i] = seen[key] = seen.get(key, -1) + 1
            for r in range(int(rank.max()) + 1):
                pick = np.flatnonzero(rank == r)
                self._write(_take(keys, pick), versions[pick], _take(rows, pick), prune)
            return
        slab, latest = self.slab, self._latest
        head = np.fromiter(map(latest.get, keys, repeat(-1)), np.intp, n)
        head_batch = np.where(head >= 0, slab.batch[head], NO_VERSION)
        below = versions < head_batch
        if below.any():
            # Rows older than their key's newest version (a backfill
            # behind a read-advanced flush): placed one by one, after
            # the rest of the block.
            self._check_room(keys, versions)
            pick = np.flatnonzero(~below)
            self._write(_take(keys, pick), versions[pick], _take(rows, pick), prune)
            for i in np.flatnonzero(below).tolist():
                self._write_below(keys[i], versions[i], _take(rows, [i]), prune)
            return
        # Every row becomes (or overwrites) its key's newest version:
        # one slab scatter, one index update. The block needs room for
        # every version it adds; a row then takes over its key's newest
        # slot when it restates that version or (put) when no barrier
        # protects it — the space of a superseded version is recycled
        # for the one superseding it — and a fresh slot otherwise.
        self.pool.require_free(
            int(np.count_nonzero(versions != head_batch)) * self.entry_bytes
        )
        key_column = np.asarray(keys, dtype=np.uint64)
        reuse = versions == head_batch
        if prune:
            barriers = self._barriers
            reuse |= (head >= 0) & (
                np.searchsorted(barriers, head_batch)
                == np.searchsorted(barriers, versions)
            )
        if reuse.any():
            fresh = np.flatnonzero(~reuse)
            slots = slab.write(key_column[fresh], versions[fresh], _take(rows, fresh))
            slab.rewrite(head[reuse], versions[reuse], _take(rows, reuse))
            keys, tops = _take(keys, fresh), np.concatenate([slots, head[reuse]])
            head = head[fresh]
        else:
            tops = slots = slab.write(key_column, versions, rows)
        self._fit_index()
        self._older[slots] = head
        latest.update(zip(keys, slots.tolist()))
        if prune:
            self._prune(tops[self._older[tops] >= 0])

    def _write_below(self, key: int, version: int, row, prune: bool) -> None:
        """Place one version under ``key``'s newest one."""
        slab = self.slab
        above = self._latest[key]
        slot = self._older[above]
        while slot >= 0 and slab.batch[slot] > version:
            above, slot = slot, self._older[slot]
        if slot >= 0 and slab.batch[slot] == version:
            slab.rewrite(np.array([slot]), version, row)
        else:
            (new,) = slab.write(
                np.array([key], dtype=np.uint64), np.array([version]), row
            )
            self._fit_index()
            self._older[new] = slot
            self._older[above] = new
        if prune:
            self._prune(np.array([self._latest[key]], dtype=np.intp))

    def _check_room(self, keys: list[int], versions: np.ndarray) -> None:
        """Refuse a multi-step block the pool cannot hold in full."""
        added = sum(
            key not in self._latest or version not in self.versions_of(key)
            for key, version in set(zip(keys, versions.tolist()))
        )
        self.pool.require_free(added * self.entry_bytes)

    def _fit_index(self) -> None:
        """Grow the version index to the slab's capacity."""
        if len(self._older) < self.slab.capacity:
            grown = np.full(self.slab.capacity, -1, dtype=np.intp)
            grown[: len(self._older)] = self._older
            self._older = grown

    def _prune(self, heads: np.ndarray) -> int:
        """Free the unprotected versions below ``heads`` (newest slots of
        distinct keys); returns how many. A version stays iff a barrier
        lies between it and the next-newer version its key keeps."""
        slab, older, barriers = self.slab, self._older, self._barriers
        freed = 0
        above, slots = heads, older[heads]
        while True:
            walking = slots >= 0
            if not walking.any():
                return freed
            above, slots = above[walking], slots[walking]
            keep = np.searchsorted(barriers, slab.batch[slots]) < np.searchsorted(
                barriers, slab.batch[above]
            )
            below = older[slots]
            drop = ~keep
            if drop.any():
                older[above[drop]] = below[drop]
                self._free(slots[drop])
                freed += int(drop.sum())
            above, slots = np.where(keep, slots, above), below

    def _at_most(self, slots: np.ndarray, barrier) -> np.ndarray:
        """Step chain heads ``slots`` (-1: no chain) down, in place, to
        each chain's newest version ``<= barrier`` (-1: none)."""
        batch, barrier = self.slab.batch, np.asarray(barrier)
        while True:
            newer = np.flatnonzero((slots >= 0) & (batch[slots] > barrier))
            if not len(newer):
                return slots
            slots[newer] = self._older[slots[newer]]

    def _free(self, slots: np.ndarray) -> None:
        self._older[slots] = -1
        self.slab.free(slots)

    def _chain(self, key: int) -> list[int]:
        """Slots of ``key``'s versions, newest first."""
        slots = []
        slot = self._latest.get(key, -1)
        while slot >= 0:
            slots.append(slot)
            slot = int(self._older[slot])
        return slots


def _key_list(keys) -> list[int]:
    return keys.tolist() if isinstance(keys, np.ndarray) else list(keys)


def _take(block, pick):
    """``block[pick]`` for a key list, a row matrix or None (no rows)."""
    if block is None:
        return None
    if isinstance(block, np.ndarray):
        return block[pick]
    return [block[i] for i in np.asarray(pick).tolist()]
