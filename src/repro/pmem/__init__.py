"""Persistent-memory substrate (PMDK-like, simulated).

The paper builds on Intel Optane PMem via PMDK. This package provides
the equivalents the PS core needs:

* :class:`~repro.pmem.pool.PmemPool` — a persistent pool: a small root
  region with atomic 8-byte updates (for the *Checkpointed Batch ID*),
  the :class:`~repro.pmem.pool.EntrySlab` that holds embedding rows,
  capacity accounting and crash simulation.
* :class:`~repro.pmem.space.VersionedEntryStore` — the space manager of
  Section V-C: it keeps the entry version belonging to the latest
  successful checkpoint from being overwritten by newer flushes, and
  recycles superseded versions once a newer checkpoint completes. It
  moves rows a block at a time, and whole keys between stores as an
  :class:`~repro.pmem.space.EntryBlock`.

Durability model: every slab write is flushed (its ``live`` bit is the
commit point) and every root update atomic, so
:meth:`~repro.pmem.pool.PmemPool.crash` loses nothing in the pool. What
makes a batch of rows all-or-nothing is the store's versioning: rows
are put as new versions beside the ones the last checkpoint needs, and
one root write of the checkpoint id commits them; recovery discards
every version newer than that id. PMem-OE and DRAM-PS checkpoints both
commit this way.
"""

from repro.pmem.pool import EntrySlab, PmemPool
from repro.pmem.space import EntryBlock, VersionedEntryStore

__all__ = ["PmemPool", "EntrySlab", "EntryBlock", "VersionedEntryStore"]
