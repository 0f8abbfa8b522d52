"""Test harness: a key-taking face for the heads-speaking store.

Production's :class:`~repro.pmem.space.VersionedEntryStore` owns no key
map: callers pass each key's *head* (slot of its newest version) and get
the new one back, and a node keeps its heads in the ``head`` column of
the hash index. Tests that drive a store by key — the dict-model
property, the retention cases, the per-key oracle cache — go through
:class:`KeyedStore`, which resolves keys to heads the way the store
itself did before the map moved out:

* ``KeyedStore(store)`` keeps the ``key -> head`` dict production
  retired (a bare store, or the store under the oracle cache);
* ``keyed(node)`` / ``keyed(cache)`` reads and writes the heads of a
  production cache's own index, so a test can ask a live node's store
  about a key.

Everything that is not about keys (barriers, ``recycle``, the checkpoint
id, ``pool`` / ``slab`` / ``entry_bytes``) passes through.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RecoveryError
from repro.pmem.space import NO_CHECKPOINT, EntryBlock, VersionedEntryStore


class KeyedStore:
    """``VersionedEntryStore`` by key; see the module docstring."""

    def __init__(self, store: VersionedEntryStore, index=None):
        self.store = store
        self._index = index  # a production HashIndex, or None: own dict
        self._heads: dict[int, int] = {}

    def __getattr__(self, name: str):
        return getattr(self.store, name)

    # ------------------------------------------------------------------
    # key -> head
    # ------------------------------------------------------------------

    def _get(self, keys) -> np.ndarray:
        keys = [int(key) for key in keys]
        if self._index is None:
            return np.array([self._heads.get(key, -1) for key in keys], dtype=np.intp)
        slots = self._index.lookup(np.array(keys, dtype=np.uint64))
        return np.where(slots >= 0, self._index.columns.head[slots], -1).astype(np.intp)

    def _set(self, keys, heads) -> None:
        for key, head in zip([int(key) for key in keys], np.asarray(heads).tolist()):
            if self._index is not None:
                (slot,) = self._index.lookup(np.array([key], dtype=np.uint64))
                self._index.columns.head[slot] = head
            elif head >= 0:
                self._heads[key] = head
            else:
                self._heads.pop(key, None)

    # ------------------------------------------------------------------
    # the store's calls, by key
    # ------------------------------------------------------------------

    def put(self, keys, versions, rows) -> None:
        self._set(keys, self.store.put(keys, self._get(keys), versions, rows))

    def ingest(self, block: EntryBlock) -> None:
        """Key-repeating blocks are fine here (the property test builds
        them): every version lands under the head the key has by then."""
        keys = np.repeat(block.keys, block.nversions.astype(np.intp))
        # As the store's own ingest does: unpruned versions may leave a
        # chain that is not minimal, so the next puts must prune again.
        self.store._minimal = False
        heads = self.store._write(
            keys, self._get(keys), block.batch_ids, block.rows, prune=False
        )
        self._set(keys, heads)

    def read_latest(self, keys):
        heads = self._get(keys)
        if (heads < 0).any():
            raise KeyError([key for key, head in zip(keys, heads) if head < 0])
        return self.store.read_latest(heads)

    def read_at_most(self, keys, barrier):
        return self.store.read_at_most(self._get(keys), barrier)

    def export(self, keys) -> EntryBlock:
        return self.store.export(keys, self._get(keys))

    def drop_key(self, key: int) -> int:
        freed = self.store.drop(self._get([key]))
        self._set([key], [-1])
        return freed

    def has(self, key: int) -> bool:
        return bool(self._get([key])[0] >= 0)

    def keys(self) -> list[int]:
        """All keys with at least one stored version."""
        if self._index is None:
            return list(self._heads)
        columns = self._index.columns
        return columns.key[np.flatnonzero(columns.head >= 0)].tolist()

    def versions_of(self, key: int) -> list[int]:
        """Sorted batch ids currently stored for ``key`` (may be empty)."""
        return self.store.slab.batch[self._chain(key)][::-1].tolist()

    def latest_versions(self) -> dict[int, int]:
        keys = self.keys()
        return dict(zip(keys, self.store.slab.batch[self._get(keys)].tolist()))

    def _chain(self, key: int) -> list[int]:
        """Slots of ``key``'s versions, newest first."""
        return self.store._chains(self._get([key]))[1].tolist()

    # ------------------------------------------------------------------
    # recovery: this face holds the index being rebuilt
    # ------------------------------------------------------------------

    def _adopt(self, keys: np.ndarray, heads: np.ndarray) -> None:
        """The scan's result replaces every head held so far."""
        if self._index is None:
            self._heads = dict(zip(keys.tolist(), heads.tolist()))
            return
        columns, slots = self._index.columns, self._index.lookup(keys)
        columns.head[:] = -1
        columns.head[slots[slots >= 0]] = heads[slots >= 0]

    def rebuild_from_pool(self) -> None:
        keys, heads, __ = self.store.rebuild_from_pool()
        self._adopt(keys, heads)

    def discard_newer_than(self, checkpoint_id: int) -> int:
        discarded = self.store.discard_newer_than(checkpoint_id)
        self.rebuild_from_pool()
        return discarded

    def recover(self) -> dict[int, int]:
        """Full recovery, the two steps ``repro.core.recovery`` takes:
        discard post-checkpoint versions, scan. Returns ``key ->
        recovered batch_id`` for every surviving key."""
        checkpoint_id = self.store.checkpointed_batch_id()
        if checkpoint_id == NO_CHECKPOINT:
            raise RecoveryError("no completed checkpoint recorded in PMem root")
        self.store.discard_newer_than(checkpoint_id)
        keys, heads, versions = self.store.rebuild_from_pool()
        self._adopt(keys, heads)
        return dict(zip(keys.tolist(), versions.tolist()))


def keyed(owner) -> KeyedStore:
    """The key-taking face of ``owner.store`` — a node's or a cache's —
    resolving heads through the owner's own index."""
    store = owner.store
    if isinstance(store, KeyedStore):  # the oracle node already carries one
        return store
    return KeyedStore(store, getattr(owner, "cache", owner).index)
