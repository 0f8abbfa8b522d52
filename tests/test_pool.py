"""PmemPool: the slab's rows, the root, capacity and crash."""

import numpy as np
import pytest

from repro.errors import OutOfSpaceError, PMemError
from repro.pmem.pool import PmemPool

SLOT = 16  # bytes: four floats


@pytest.fixture
def pool():
    return PmemPool(capacity_bytes=1024)


def rows(*values):
    """One four-float row per value."""
    return np.repeat(np.array(values, dtype=np.float32)[:, None], SLOT // 4, axis=1)


def write(pool, *values):
    """Write one row per value under keys 0, 1, ...; returns the slots."""
    keys = np.arange(len(values), dtype=np.uint64)
    return pool.slab(SLOT).write(keys, np.zeros(len(values), np.int64), rows(*values))


class TestBasicOps:
    def test_write_read_roundtrip(self, pool):
        slots = write(pool, 1, 2, 3)
        assert np.array_equal(pool.slab(SLOT).read(slots), rows(1, 2, 3))

    def test_read_returns_copy(self, pool):
        slots = write(pool, 1, 2)
        out = pool.slab(SLOT).read(slots)
        out[0] = 99
        assert pool.slab(SLOT).read(slots)[0, 0] == 1

    def test_write_copies_input(self, pool):
        value = rows(1, 2)
        slots = pool.slab(SLOT).write(np.arange(2, dtype=np.uint64), np.zeros(2, np.int64), value)
        value[0] = 99
        assert pool.slab(SLOT).read(slots)[0, 0] == 1

    def test_free_reclaims_space(self, pool):
        slots = write(pool, 1, 2)
        pool.slab(SLOT).free(slots[:1])
        assert pool.used_bytes == SLOT and len(pool) == 1

    def test_len_and_keys(self, pool):
        """The pool's entries are the slab's live slots; their keys are
        the slot headers."""
        slots = write(pool, 5, 6, 7)
        pool.slab(SLOT).free(slots[1:2])
        live = np.flatnonzero(pool.slab(SLOT).live)
        assert len(pool) == 2 and sorted(pool.slab(SLOT).key[live].tolist()) == [0, 2]

    def test_overwrite_replaces_size(self, pool):
        slots = write(pool, 1)
        pool.slab(SLOT).rewrite(slots, np.array([3]), rows(7))
        assert pool.used_bytes == SLOT
        assert pool.slab(SLOT).batch[slots].tolist() == [3]


class TestCapacity:
    def test_out_of_space(self, pool):
        write(pool, *range(1024 // SLOT))
        with pytest.raises(OutOfSpaceError):
            write(pool, 1)

    def test_overwrite_does_not_double_count(self, pool):
        slots = write(pool, *range(1024 // SLOT))
        pool.slab(SLOT).rewrite(slots, np.ones(len(slots), np.int64), rows(*range(len(slots))))
        assert pool.used_bytes == 1024

    def test_free_bytes(self, pool):
        write(pool, 1, 2)
        assert pool.free_bytes == 1024 - 2 * SLOT


class TestDurability:
    def test_flushed_write_survives_crash(self, pool):
        slots = write(pool, 7)
        pool.crash()
        slab = pool.slab(SLOT)
        assert slab.live[slots].all() and np.array_equal(slab.read(slots), rows(7))

    def test_space_accounting_recomputed_after_crash(self, pool):
        slots = write(pool, 1, 2, 3)
        pool.slab(SLOT).free(slots[1:2])
        pool.crash()
        assert pool.used_bytes == 2 * SLOT and len(pool) == 2


class TestRoot:
    def test_root_fields_atomic_and_durable(self, pool):
        pool.root.set("ckpt", 42)
        pool.crash()
        assert pool.root.get("ckpt") == 42

    def test_root_default(self, pool):
        assert pool.root.get("missing", -1) == -1
        with pytest.raises(KeyError):
            pool.root.get("missing")


class TestLifecycle:
    def test_invalid_capacity(self):
        with pytest.raises(PMemError):
            PmemPool(0)
