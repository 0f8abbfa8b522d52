"""A checkpoint's commit over the pool: all-or-nothing across a crash.

A dump puts rows into the versioned store as version ``batch_id``; one
atomic root write of the *Checkpointed Batch ID* commits it. Recovery
sees only what a commit covered.
"""

import numpy as np
import pytest

from repro.pmem.pool import PmemPool
from repro.pmem.space import VersionedEntryStore

ENTRY_BYTES = 4


@pytest.fixture
def store():
    return VersionedEntryStore(PmemPool(1 << 16), ENTRY_BYTES)


def rows(*values):
    return np.array([[v] for v in values], dtype=np.float32)


def dump(store, keys, batch_id, values, heads=None):
    """Put ``values`` of ``keys`` as version ``batch_id``, uncommitted."""
    heads = np.full(len(keys), -1) if heads is None else heads
    return store.put(keys, heads, batch_id, rows(*values))


def recover(store):
    """Crash the pool and read back every key's committed row from a
    store that has none of the writer's DRAM."""
    store.pool.crash()
    fresh = VersionedEntryStore(store.pool, ENTRY_BYTES)
    fresh.discard_newer_than(fresh.checkpointed_batch_id())
    keys, heads, __ = fresh.rebuild_from_pool()
    __, state = fresh.read_latest(heads)
    return {int(k): float(row[0]) for k, row in zip(keys, state)}


class TestTransaction:
    def test_commit_makes_all_durable(self, store):
        dump(store, [1, 2], 0, [1, 2])
        store.set_checkpointed_batch_id(0)
        assert recover(store) == {1: 1.0, 2: 2.0}

    def test_crash_before_commit_loses_all(self, store):
        dump(store, [1, 2], 0, [1, 2])  # no commit
        assert recover(store) == {}

    def test_exception_skips_commit(self, store):
        with pytest.raises(RuntimeError):
            dump(store, [1], 0, [1])
            raise RuntimeError("boom")  # before the commit's root write
        assert recover(store) == {}

    def test_partial_overwrite_keeps_previous_on_crash(self, store):
        """An interrupted re-dump must leave the previous values intact."""
        heads = dump(store, [1], 0, [1])
        store.set_checkpointed_batch_id(0)
        store.set_retention_barriers((0,))
        dump(store, [1], 1, [99], heads)  # second dump never committed
        assert recover(store) == {1: 1.0}
