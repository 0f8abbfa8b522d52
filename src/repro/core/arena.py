"""Contiguous float32 embedding arena backing the DRAM cache.

The hot path of a parameter server is memory-bandwidth-bound: a pull is
a gather of ``n`` rows, a push is a scatter of ``n`` aggregated
gradients. Per-entry Python objects holding their own little numpy
arrays defeat that — every access pays interpreter and allocator
overhead instead of one contiguous memcpy.

The arena stores every DRAM-resident entry's payload as one row of a
single ``(capacity, dim + state_width)`` float32 matrix: weights in
``[:dim]``, optimizer state in ``[dim:]``. Each resident entry records
its row number, so

* a batched pull is one whole-row gather ``np.take(data, rows, axis=0)``
  whose first ``dim`` columns it returns,
* a batched push gathers its rows the same way, applies the vectorized
  optimizer to contiguous copies of the block's weight and state halves,
  and scatters the rejoined block back, and
* flushing gathers the rows that leave (``take`` again) into the block
  one ``store.put`` persists, and loading scatters the block one
  ``store.read_latest`` returned into freshly allocated rows.

Rows are recycled through a :class:`FreeList` on eviction. When the arena is
full it doubles (amortized O(1)); growth replaces the backing matrix
:attr:`EmbeddingArena.data`, so callers address payloads by row number
through ``arena.data`` and never hold a row view across an ``alloc``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServerError

INITIAL_ROWS = 256
"""Starting row count; the arena doubles on demand up to the cache's
working set, so a huge configured capacity costs no upfront memory."""


class FreeList:
    """Stack of the free ids of ``range(capacity)``; low ids come out first."""

    def __init__(self, capacity: int):
        self._ids = np.arange(capacity - 1, -1, -1, dtype=np.int64)

    def __len__(self) -> int:
        """Ids currently free."""
        return len(self._ids)

    def pop(self, n: int) -> np.ndarray:
        """Take ``n`` ids (the caller extends the range first if short)."""
        keep = len(self._ids) - n
        ids, self._ids = self._ids[keep:][::-1].copy(), self._ids[:keep]
        return ids

    def push(self, ids: np.ndarray) -> None:
        """Give ``ids`` back, as a block (one copy of the free ids per
        block, not a step per id)."""
        self._ids = np.concatenate([self._ids, ids])

    def extend(self, start: int, stop: int) -> None:
        """The range grew from ``start`` to ``stop`` ids; the new are free."""
        self.push(np.arange(stop - 1, start - 1, -1, dtype=np.int64))


class EmbeddingArena:
    """Slab of packed embedding rows (weights + optimizer state).

    Args:
        dim: embedding dimension (floats of weights per row).
        state_width: floats of optimizer state per row (0 when the
            optimizer is stateless).
        initial_rows: starting capacity; grows by doubling.
    """

    def __init__(self, dim: int, state_width: int, initial_rows: int = INITIAL_ROWS):
        if dim <= 0:
            raise ServerError(f"dim must be positive, got {dim}")
        if state_width < 0:
            raise ServerError(f"state_width must be >= 0, got {state_width}")
        if initial_rows <= 0:
            raise ServerError(f"initial_rows must be positive, got {initial_rows}")
        self.dim = dim
        self.state_width = state_width
        self.row_width = dim + state_width
        self.data = np.zeros((initial_rows, self.row_width), dtype=np.float32)
        self._free = FreeList(initial_rows)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def alloc(self) -> int:
        """Reserve a row; doubles the arena (replacing ``data``) when full."""
        return int(self.alloc_many(1)[0])

    def alloc_many(self, n: int) -> np.ndarray:
        """Reserve ``n`` rows at once (growing as often as it takes)."""
        while len(self._free) < n:
            old = len(self.data)
            self.data = np.concatenate([self.data, np.zeros_like(self.data)])
            self._free.extend(old, 2 * old)
        return self._free.pop(n)

    def free(self, row: int) -> None:
        """Return ``row`` to the free list (its contents are garbage now)."""
        self.free_many(np.array([row], dtype=np.int64))

    def free_many(self, rows: np.ndarray) -> None:
        """Return every row of ``rows`` to the free list."""
        if len(rows) and not 0 <= rows.min() <= rows.max() < len(self.data):
            raise ServerError(f"invalid arena row among {len(rows)} freed")
        self._free.push(rows)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        """Rows currently allocated."""
        return len(self.data) - len(self._free)
