"""PmemPool: the slab's rows, the root, capacity and crash."""

import numpy as np
import pytest

from repro.errors import OutOfSpaceError, PMemError
from repro.pmem.pool import INITIAL_SLOTS, PmemPool
from repro.pmem.space import VersionedEntryStore

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


class TestSlotOrder:
    """A write lands its block in ascending slot order, so a flush of
    many rows is one sequential pass over the slab."""

    def test_fresh_slab_hands_out_ascending_slots(self, pool):
        assert write(pool, 1, 2, 3).tolist() == [0, 1, 2]
        assert write(pool, 4, 5).tolist() == [3, 4]

    def test_steady_state_slots_ascend(self):
        pool = PmemPool(capacity_bytes=4 * INITIAL_SLOTS * SLOT)
        slab, rng = pool.slab(SLOT), np.random.default_rng(3)
        write(pool, *range(INITIAL_SLOTS - 8))
        for __ in range(20):
            live = np.flatnonzero(slab.live)
            slab.free(rng.permutation(live)[: rng.integers(1, 40)])
            values = rng.integers(0, 99, rng.integers(1, 60))
            slots = write(pool, *values)  # grows the slab now and then
            assert (np.diff(slots) > 0).all()
            assert np.array_equal(slab.read(slots), rows(*values))

    def test_float64_rows_are_cast_not_reinterpreted(self, pool):
        block = np.array([[0.1, -2.5, 3e38, 1e-50], [7.0, 8.0, 9.0, 10.0]])
        slab = pool.slab(SLOT)
        slots = slab.write(np.arange(2, dtype=np.uint64), np.zeros(2, np.int64), block)
        assert slab.read(slots).tobytes() == block.astype(np.float32).tobytes()
        slab.rewrite(slots[::-1], np.ones(2, np.int64), block)
        assert slab.read(slots[::-1]).tobytes() == block.astype(np.float32).tobytes()

    def test_barrier_checkpoints_recover_bit_identical_rows(self):
        """20 barriers the way ``sync_hot`` takes them (request: the old
        and the new checkpoint are barriers; every dirty row is put at
        the new one; complete: only the new one is; recycle), then a
        21st left pending, a crash and recovery: every key reads back,
        bit for bit, the row it was put with at the 20th checkpoint."""
        keys, width = np.arange(300, dtype=np.uint64), 8
        store = VersionedEntryStore(PmemPool(1 << 20), entry_bytes=4 * width)
        rng = np.random.default_rng(7)
        heads = np.full(len(keys), -1, dtype=np.intp)
        state = rng.standard_normal((len(keys), width)).astype(np.float32)
        dirty = np.ones(len(keys), dtype=bool)
        for cp in range(10, 220, 10):
            store.set_retention_barriers((cp - 10, cp) if cp > 10 else (cp,))
            at = np.flatnonzero(dirty)
            heads[at] = store.put(keys[at], heads[at], cp, state[at])
            if cp == 210:
                break  # the crash comes before this one completes
            store.set_checkpointed_batch_id(cp)
            store.set_retention_barriers((cp,))
            store.recycle()
            durable = state.copy()
            assert store.total_versions() == len(keys)
            dirty = rng.random(len(keys)) < 0.6
            state[dirty] += rng.standard_normal((int(dirty.sum()), width)).astype(np.float32)
        store.pool.crash()
        store = VersionedEntryStore(store.pool, entry_bytes=4 * width)
        store.discard_newer_than(store.checkpointed_batch_id())
        found, heads, versions = store.rebuild_from_pool()
        assert found.tolist() == keys.tolist() and set(versions.tolist()) <= set(range(10, 210))
        assert store.read_latest(heads)[1].tobytes() == durable.tobytes()


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
