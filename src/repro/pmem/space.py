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
batch id, and the store links every slot to the slot of the same key's
next-older version (``_older``, volatile, rebuilt by the recovery scan).
A key's versions are therefore one chain, addressed by its **head**: the
slot of its newest version, ``-1`` for a key with none.

**The store owns no key map.** The node has one index (Section V-A):
the DRAM hash index, whose entry carries the PMem pointer — the ``head``
column of :class:`repro.core.entry.EntryColumns`. Every call takes the
heads of the keys it concerns and the writing calls return the new ones:
:meth:`put`, :meth:`read_latest`, :meth:`read_at_most`, :meth:`export`,
:meth:`ingest` and :meth:`drop` speak **blocks of slots** and cost one
slab scatter or gather plus array operations on the chains, not a Python
step per row. Keys only feed the slot headers, which is what
:meth:`rebuild_from_pool` reads them back from. (``pmem/`` imports
nothing from ``core/``; tests that want a key-taking store wrap this
one in ``tests/harness/keyed_store.py``.) Whole keys change stores as an
:class:`EntryBlock`: :meth:`export` gathers every retained version of
some keys into four columns and :meth:`ingest` scatters such a block in,
which is all that migration, replica rebuild and the wire ever see of an
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import PMemError
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
    rows: np.ndarray  # f32[total, width]

    def __len__(self) -> int:
        return len(self.keys)


NO_ENTRIES = EntryBlock(
    np.empty(0, np.uint64), np.empty(0, np.uint32), np.empty(0, np.int64),
    np.empty((0, 0), np.float32),
)
"""The block of no keys and no rows (ingesting it changes nothing)."""


class VersionedEntryStore:
    """Versioned entry storage with checkpoint-aware retention.

    Args:
        pool: the persistent pool all versions live in.
        entry_bytes: payload size of one entry — the slot size of the
            pool's slab.

    The chain links are volatile DRAM state; after a crash they are
    rebuilt by :meth:`rebuild_from_pool`, which also hands the caller the
    head of every surviving key.
    """

    def __init__(self, pool: PmemPool, entry_bytes: int):
        if entry_bytes <= 0:
            raise PMemError(f"entry_bytes must be positive, got {entry_bytes}")
        self.pool = pool
        self.entry_bytes = entry_bytes
        self.slab = pool.slab(entry_bytes)
        self._older = np.full(self.slab.capacity, -1, dtype=np.intp)
        self._barriers = np.empty(0, dtype=np.int64)
        # Every chain is minimal under the current barriers: pruning any
        # of them would free nothing. :meth:`recycle` establishes it and
        # a put keeps it (see :meth:`put`); only a released barrier,
        # :meth:`ingest` and :meth:`rebuild_from_pool` lose it.
        self._minimal = True
        if CHECKPOINT_ID_FIELD not in pool.root.fields():
            pool.root.set(CHECKPOINT_ID_FIELD, NO_CHECKPOINT)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, keys, heads, versions, rows: np.ndarray) -> np.ndarray:
        """Persist ``rows[i]`` as version ``versions[i]`` of ``keys[i]``,
        whose newest stored version is slot ``heads[i]`` (-1: none).

        Returns the new head of every position (every occurrence of a
        repeated key reports that key's final head). ``versions`` is one
        batch id for the whole block or one per key; ``rows`` is
        ``(len(keys), entry_bytes / 4)`` float32. A key may repeat: the
        block then behaves like its rows put one after another. Versions
        of the written keys that no retention barrier protects are
        recycled: a row no barrier separates from its key's head takes
        the head's slot over, and the others land in fresh slots,
        ascending. While every chain is minimal under the barriers
        (since the last :meth:`recycle`, with no barrier released), that
        is all a put has to free, and it walks no chain; otherwise it
        prunes the chains of the keys it wrote.

        The block needs room for every version it adds before the ones
        it supersedes are freed, and is all or nothing about it.

        Raises:
            OutOfSpaceError: the pool cannot hold the new versions.
        """
        return self._write(
            np.asarray(keys, dtype=np.uint64), np.array(heads, dtype=np.intp),
            versions, rows, prune=True,
        )

    def ingest(self, block: EntryBlock) -> np.ndarray:
        """:meth:`put` a block copied from another shard, WITHOUT pruning;
        its keys must hold no version here. Returns the head of every
        key of the block (-1 for a key the block holds no version of).

        Migration (``repro.core.migration``) transfers every retained
        version of a key verbatim — including versions protected by the
        source's barriers that this store does not know about yet — so
        the new owner can recover to exactly the same checkpoints the
        old owner could.
        """
        self._minimal = False
        counts = block.nversions.astype(np.intp)
        heads = self._write(
            np.repeat(block.keys, counts), np.full(int(counts.sum()), -1, np.intp),
            block.batch_ids, block.rows, prune=False,
        )
        last = np.cumsum(counts) - 1  # any occurrence holds the final head
        return np.where(counts > 0, heads[last] if len(heads) else -1, -1)

    def set_retention_barriers(self, barriers: tuple[int, ...]) -> None:
        """Declare which checkpoint batch ids must stay recoverable.

        Called by the checkpoint manager whenever the set of outstanding
        checkpoints (plus the last completed one) changes. Pruning on
        subsequent writes honours the new barrier set; existing excess
        versions are recycled lazily via :meth:`recycle`. A set that
        releases a barrier makes every put prune its keys' chains until
        then.
        """
        # A barrier added protects more; only a release can leave a
        # kept version unprotected.
        self._minimal &= set(self._barriers.tolist()) <= set(barriers)
        self._barriers = np.unique(np.asarray(barriers, dtype=np.int64))

    def drop(self, heads) -> int:
        """Free *every* stored version of the (distinct) keys whose
        chains start at ``heads``; returns versions freed.

        Used by live shard migration (``repro.core.migration``): after a
        key's entries have been copied to their new owner and the ring
        epoch has committed, the source shard drops its copies. Barriers
        are intentionally ignored — ownership has moved, so this shard
        will never be asked to recover the key.
        """
        slots = self._chains(heads)[1]
        self._free(slots)
        return len(slots)

    def recycle(self) -> int:
        """Recycle all versions unprotected by the current barriers.

        Returns the number of versions freed. Invoked when a checkpoint
        completes ("the space manager will recycle the space of these
        entries once the new checkpoint is done"). Only keys holding
        more than one version are visited, found by one mask over the
        slab's chain links; no head ever moves. Afterwards every chain
        is minimal under the barriers, so puts walk no chain until a
        barrier is released.
        """
        older = self._older
        linked = np.flatnonzero(self.slab.live & (older >= 0))
        pointed_at = np.zeros(len(older), dtype=bool)
        pointed_at[older[linked]] = True
        self._minimal = True
        return self._prune(linked[~pointed_at[linked]])

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read_latest(self, heads) -> tuple[np.ndarray, np.ndarray]:
        """The version at every head as ``(batch ids, rows)``.

        ``rows`` is a fresh ``(len(heads), entry_bytes / 4)`` array.

        Raises:
            KeyError: a head is -1 (the key has no stored version).
        """
        heads = np.asarray(heads, dtype=np.intp)
        if len(heads) and heads.min() < 0:
            raise KeyError(f"{np.count_nonzero(heads < 0)} keys have no stored version")
        return self.slab.batch[heads], self.slab.read(heads)

    def read_at_most(self, heads, barrier) -> tuple[np.ndarray, np.ndarray]:
        """Newest version of every chain with ``batch_id <= barrier``.

        ``barrier`` is one batch id or one per head. A key with no such
        version (or no version at all, head -1) reports
        :data:`NO_VERSION` and a zero row, and is not charged a read.
        """
        batch = self.slab.batch
        slots = self._at_most(np.array(heads, dtype=np.intp), barrier)
        if slots.min(initial=0) >= 0:
            return batch.take(slots), self.slab.read(slots)
        found = slots >= 0
        rows = np.zeros((len(slots), self.slab.width), dtype=np.float32)
        rows[found] = self.slab.read(slots[found])
        return np.where(found, batch[slots], NO_VERSION), rows

    def export(self, keys, heads) -> EntryBlock:
        """Every stored version of ``keys`` (chains at ``heads``), oldest
        first within a key — the block :meth:`ingest` takes. A key with
        no version stays in the block with ``nversions`` 0."""
        at, slots = self._chains(heads)
        order = np.lexsort((self.slab.batch[slots], at))
        slots = slots[order]
        return EntryBlock(
            keys=np.asarray(keys, dtype=np.uint64),
            nversions=np.bincount(at, minlength=len(keys)).astype(np.uint32),
            batch_ids=self.slab.batch[slots],
            rows=self.slab.read(slots),
        )

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

    def discard_newer_than(self, checkpoint_id: int) -> int:
        """Drop all versions newer than ``checkpoint_id`` (recovery step
        1): one sweep over the slot headers. A key whose every version
        is newer (created after the checkpoint) disappears. Heads held
        by the caller are stale afterwards; :meth:`rebuild_from_pool`
        reports the surviving ones. Returns the versions discarded.
        """
        slab = self.slab
        doomed = np.flatnonzero(slab.live & (slab.batch > checkpoint_id))
        self._free(doomed)
        return len(doomed)

    def rebuild_from_pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rebuild the volatile chain links from the slot headers.

        This is recovery step 2's first half: after
        :meth:`PmemPool.crash` the DRAM state is gone; one scan of the
        live slots' ``(key, batch_id)`` headers restores the links and
        returns ``(keys, heads, versions)`` of every stored key — what
        the caller inserts into the hash index.
        """
        slab = self.slab
        slots = np.flatnonzero(slab.live)
        keys = slab.key[slots]
        order = np.lexsort((slab.batch[slots], keys))
        slots, keys = slots[order], keys[order]
        same_key = keys[1:] == keys[:-1]
        self._older = np.full(slab.capacity, -1, dtype=np.intp)
        self._older[slots[1:][same_key]] = slots[:-1][same_key]
        self._minimal = False
        newest = np.append(~same_key, True)[: len(slots)]
        return keys[newest], slots[newest], slab.batch[slots[newest]]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _write(self, keys, head, versions, rows, prune: bool) -> np.ndarray:
        n = len(keys)
        if n == 0:
            return head
        versions = np.broadcast_to(np.asarray(versions, dtype=np.int64), (n,))
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            # Repeated keys: one sub-block per occurrence rank (keys are
            # independent, so only each key's own order matters), each
            # key's head threaded from one rank to the next.
            self._check_room(keys, head, versions)
            order = np.argsort(keys, kind="stable")
            first = np.append(True, ordered[1:] != ordered[:-1])
            starts, group = np.flatnonzero(first), np.empty(n, dtype=np.intp)
            group[order] = np.cumsum(first) - 1
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n) - starts[group[order]]
            current = head[order[starts]]
            for r in range(int(rank.max()) + 1):
                pick = np.flatnonzero(rank == r)
                current[group[pick]] = self._write(
                    keys[pick], current[group[pick]], versions[pick], rows[pick], prune,
                )
            return current[group]
        slab = self.slab
        head_batch = np.where(head >= 0, slab.batch[head], NO_VERSION)
        below = versions < head_batch
        if below.any():
            # Rows older than their key's newest version: placed one by
            # one, after the rest of the block. They move no head.
            self._check_room(keys, head, versions)
            pick = np.flatnonzero(~below)
            head[pick] = self._write(keys[pick], head[pick], versions[pick], rows[pick], prune)
            for i in np.flatnonzero(below).tolist():
                self._write_below(keys[i], head[i], versions[i], rows[[i]], prune)
            return head
        # Every row becomes (or overwrites) its key's newest version:
        # one slab scatter, one chain update. The block needs room for
        # every version it adds; a row then takes over its key's newest
        # slot when it restates that version or (put) when no barrier
        # protects it — the space of a superseded version is recycled
        # for the one superseding it — and a fresh slot otherwise.
        self.pool.require_free(
            int(np.count_nonzero(versions != head_batch)) * self.entry_bytes
        )
        reuse = versions == head_batch
        if prune:
            barriers = self._barriers
            reuse |= (head >= 0) & (
                np.searchsorted(barriers, head_batch)
                == np.searchsorted(barriers, versions)
            )
        if reuse.any():
            fresh = np.flatnonzero(~reuse)
            slab.rewrite(head[reuse], versions[reuse], rows[reuse])
            keys, versions, rows = keys[fresh], versions[fresh], rows[fresh]
        else:
            fresh = slice(None)
        slots = slab.write(keys, versions, rows)
        self._link(slots, head[fresh])
        head[fresh] = slots
        if prune and not self._minimal:  # a minimal chain stays so (see put)
            self._prune(head[self._older[head] >= 0])
        return head

    def _write_below(self, key, above: int, version: int, row, prune: bool) -> None:
        """Place one version under ``key``'s newest one, slot ``above``."""
        slab, top = self.slab, np.array([above], dtype=np.intp)
        slot = self._older[above]
        while slot >= 0 and slab.batch[slot] > version:
            above, slot = slot, self._older[slot]
        if slot >= 0 and slab.batch[slot] == version:
            slab.rewrite(np.array([slot]), version, row)
        else:
            (new,) = slab.write(np.array([key], dtype=np.uint64), np.array([version]), row)
            self._link(new, slot)
            self._older[above] = new
        if prune:
            self._prune(top)

    def _check_room(self, keys, heads, versions) -> None:
        """Refuse a multi-step block the pool cannot hold in full."""
        at, slots = self._chains(heads)
        stored = np.zeros(len(keys), dtype=bool)
        stored[at[self.slab.batch[slots] == versions[at]]] = True
        added = np.unique(np.stack([keys[~stored], versions[~stored].astype(np.uint64)]), axis=1)
        self.pool.require_free(added.shape[1] * self.entry_bytes)

    def _link(self, slots, older) -> None:
        """Point new ``slots`` at their next-older versions (-1: none),
        first growing the links to the slab's capacity."""
        if (grow := self.slab.capacity - len(self._older)) > 0:
            self._older = np.append(self._older, np.full(grow, -1, dtype=np.intp))
        self._older[slots] = older

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
            newer = ((slots >= 0) & (batch.take(slots) > barrier)).nonzero()[0]
            if not len(newer):
                return slots
            slots[newer] = self._older[slots[newer]]

    def _chains(self, heads) -> tuple[np.ndarray, np.ndarray]:
        """Every slot of the chains at ``heads``, level by level (newest
        first within a chain), as ``(position in heads, slot)``."""
        slots = np.asarray(heads, dtype=np.intp)
        at = np.flatnonzero(slots >= 0)
        slots = slots[at]
        found = [(at, slots)]
        while len(slots):
            slots = self._older[slots]
            at, slots = at[slots >= 0], slots[slots >= 0]
            found.append((at, slots))
        return tuple(np.concatenate(column) for column in zip(*found))

    def _free(self, slots: np.ndarray) -> None:
        self._older[slots] = -1
        self.slab.free(slots)
