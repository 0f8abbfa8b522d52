"""Transactions over the pool: all-or-nothing across a crash."""

import numpy as np
import pytest

from repro.errors import PMemError
from repro.pmem.persistence import Transaction
from repro.pmem.pool import PmemPool


@pytest.fixture
def pool():
    return PmemPool(1 << 16)


def arr(v):
    return np.array([v], dtype=np.float32)


class TestTransaction:
    def test_commit_makes_all_durable(self, pool):
        with Transaction(pool) as tx:
            tx.write("a", arr(1))
            tx.write("b", arr(2))
        pool.crash()
        assert pool.read("a")[0] == 1
        assert pool.read("b")[0] == 2

    def test_crash_before_commit_loses_all(self, pool):
        tx = Transaction(pool)
        tx.write("a", arr(1))
        tx.write("b", arr(2))
        pool.crash()  # no commit
        assert "a" not in pool
        assert "b" not in pool

    def test_exception_skips_commit(self, pool):
        with pytest.raises(RuntimeError):
            with Transaction(pool) as tx:
                tx.write("a", arr(1))
                raise RuntimeError("boom")
        pool.crash()
        assert "a" not in pool

    def test_commit_marker(self, pool):
        with Transaction(pool, commit_marker="done") as tx:
            tx.write("a", arr(1))
        assert pool.root.get("done") == 1

    def test_double_commit_rejected(self, pool):
        tx = Transaction(pool)
        tx.write("a", arr(1))
        assert tx.commit() == 1
        with pytest.raises(PMemError):
            tx.commit()

    def test_write_after_commit_rejected(self, pool):
        tx = Transaction(pool)
        tx.commit()
        with pytest.raises(PMemError):
            tx.write("a", arr(1))

    def test_partial_overwrite_keeps_previous_on_crash(self, pool):
        """An interrupted re-dump must leave the previous values intact."""
        with Transaction(pool) as tx:
            tx.write("a", arr(1))
        tx2 = Transaction(pool)
        tx2.write("a", arr(99))
        pool.crash()  # second dump never committed
        assert pool.read("a")[0] == 1

