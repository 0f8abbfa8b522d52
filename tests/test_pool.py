"""PmemPool durability semantics: flush, stage, crash, capacity."""

import numpy as np
import pytest

from repro.errors import OutOfSpaceError, PMemError, PoolClosedError
from repro.pmem.pool import PmemPool


@pytest.fixture
def pool():
    return PmemPool(capacity_bytes=1024)


def arr(*values):
    return np.array(values, dtype=np.float32)


def zeros(nbytes):
    """An array of ``nbytes`` bytes."""
    return np.zeros(nbytes, dtype=np.uint8)


class TestBasicOps:
    def test_write_read_roundtrip(self, pool):
        pool.write("k", arr(1, 2, 3))
        assert np.array_equal(pool.read("k"), arr(1, 2, 3))

    def test_read_returns_copy(self, pool):
        pool.write("k", arr(1, 2))
        out = pool.read("k")
        out[0] = 99
        assert pool.read("k")[0] == 1

    def test_write_copies_input(self, pool):
        value = arr(1, 2)
        pool.write("k", value)
        value[0] = 99
        assert pool.read("k")[0] == 1

    def test_missing_key_raises(self, pool):
        with pytest.raises(KeyError):
            pool.read("nope")

    def test_contains(self, pool):
        pool.write("k", arr(1))
        assert "k" in pool
        assert "other" not in pool

    def test_free_reclaims_space(self, pool):
        pool.write("k", arr(1, 2, 3, 4))
        used = pool.used_bytes
        pool.free("k")
        assert pool.used_bytes == used - 16
        assert "k" not in pool

    def test_free_missing_raises(self, pool):
        with pytest.raises(KeyError):
            pool.free("nope")

    def test_overwrite_replaces_size(self, pool):
        pool.write("k", arr(1, 2, 3, 4))
        pool.write("k", arr(1))
        assert pool.used_bytes == 4

    def test_len_and_keys(self, pool):
        pool.write("a", arr(1))
        pool.write("b", arr(2), flush=False)
        assert len(pool) == 2
        assert set(pool.keys()) == {"a", "b"}


class TestCapacity:
    def test_out_of_space(self, pool):
        pool.write("big", zeros(1024))
        with pytest.raises(OutOfSpaceError):
            pool.write("more", zeros(1))

    def test_overwrite_does_not_double_count(self, pool):
        pool.write("k", zeros(1024))
        pool.write("k", zeros(1024))  # same footprint: fine
        assert pool.used_bytes == 1024

    def test_free_bytes(self, pool):
        pool.write("k", zeros(100))
        assert pool.free_bytes == 924


class TestDurability:
    def test_flushed_write_survives_crash(self, pool):
        pool.write("k", arr(7), flush=True)
        pool.crash()
        assert np.array_equal(pool.read("k"), arr(7))

    def test_staged_write_lost_on_crash(self, pool):
        pool.write("k", arr(7), flush=False)
        pool.crash()
        assert "k" not in pool

    def test_staged_overwrite_reverts_to_durable(self, pool):
        pool.write("k", arr(1), flush=True)
        pool.write("k", arr(2), flush=False)
        assert pool.read("k")[0] == 2  # staged visible while running
        pool.crash()
        assert pool.read("k")[0] == 1  # durable value survives

    def test_drain_persists_staged(self, pool):
        pool.write("k", arr(3), flush=False)
        pool.drain()
        pool.crash()
        assert pool.read("k")[0] == 3

    def test_durable_keys(self, pool):
        pool.write("a", arr(1), flush=True)
        pool.write("b", arr(2), flush=False)
        assert pool.durable_keys() == ["a"]

    def test_space_accounting_recomputed_after_crash(self, pool):
        pool.write("a", zeros(100), flush=True)
        pool.write("b", zeros(200), flush=False)
        assert pool.used_bytes == 300
        pool.crash()
        assert pool.used_bytes == 100


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
    def test_close_drains(self, pool):
        pool.write("k", arr(1), flush=False)
        pool.close()
        pool.reopen()
        assert pool.read("k")[0] == 1

    def test_closed_pool_rejects_ops(self, pool):
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.write("k", arr(1))
        with pytest.raises(PoolClosedError):
            pool.read("k")

    def test_invalid_capacity(self):
        with pytest.raises(PMemError):
            PmemPool(0)
