"""Persistent-memory substrate (PMDK-like, simulated).

The paper builds on Intel Optane PMem via PMDK. This package provides
the equivalents the PS core needs:

* :class:`~repro.pmem.pool.PmemPool` — a byte-addressable persistent
  object pool with explicit flush semantics, a small root region with
  atomic 8-byte updates (for the *Checkpointed Batch ID*), capacity
  accounting and crash simulation; it owns the
  :class:`~repro.pmem.pool.EntrySlab` that holds embedding rows.
* :class:`~repro.pmem.space.VersionedEntryStore` — the space manager of
  Section V-C: it keeps the entry version belonging to the latest
  successful checkpoint from being overwritten by newer flushes, and
  recycles superseded versions once a newer checkpoint completes. It
  moves rows a block at a time, and whole keys between stores as an
  :class:`~repro.pmem.space.EntryBlock`.

Durability model: a write is durable once flushed (the default). Writes
staged with ``flush=False`` live in the simulated CPU cache and are lost
on :meth:`~repro.pmem.pool.PmemPool.crash`.
"""

from repro.pmem.pool import EntrySlab, PmemPool, PoolRoot
from repro.pmem.space import EntryBlock, VersionedEntryStore

__all__ = ["PmemPool", "PoolRoot", "EntrySlab", "EntryBlock", "VersionedEntryStore"]
