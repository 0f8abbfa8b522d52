"""Durability helpers: transactions and write batches over a pool.

PMDK offers transactional updates (``pmemobj_tx_*``); the incremental
checkpoint baseline and a few tests need the same "all-or-nothing over a
crash" behaviour. :class:`Transaction` stages writes (``flush=False``)
and drains them on successful exit; a crash before the drain loses the
whole batch, which is exactly the atomicity a checkpoint dump needs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PMemError
from repro.pmem.pool import PmemPool


class Transaction:
    """Stage-then-drain write batch with all-or-nothing crash behaviour.

    Usage::

        with Transaction(pool) as tx:
            tx.write(key_a, value_a)
            tx.write(key_b, value_b)
        # both durable here; a crash inside the block loses both

    Committing also writes an optional *commit marker* root field so
    readers can tell whether the batch landed.

    Note: the staging layer is shared pool state, so overlapping
    transactions on one pool are not isolated from each other; the PS
    core serializes checkpoint dumps, matching the paper's single
    checkpoint thread.
    """

    def __init__(self, pool: PmemPool, commit_marker: str | None = None):
        self.pool = pool
        self.commit_marker = commit_marker
        self._writes = 0
        self._committed = False

    def write(self, key: object, value: np.ndarray) -> float:
        """Stage one write; durable only after the transaction commits."""
        if self._committed:
            raise PMemError("transaction already committed")
        self._writes += 1
        return self.pool.write(key, value, flush=False)

    def commit(self) -> int:
        """Drain all staged writes; returns the number of writes."""
        if self._committed:
            raise PMemError("transaction already committed")
        self.pool.drain()
        if self.commit_marker is not None:
            self.pool.root.set(self.commit_marker, 1)
        self._committed = True
        return self._writes

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        # On error the staged writes are simply left un-drained; a
        # subsequent crash (the usual reason for the error) wipes them.

