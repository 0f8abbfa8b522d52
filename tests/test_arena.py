"""Unit tests for the contiguous embedding arena."""

import numpy as np
import pytest

from repro.core.arena import EmbeddingArena
from repro.errors import ServerError


class TestAlloc:
    def test_rows_are_distinct_and_in_range(self):
        arena = EmbeddingArena(4, 0, initial_rows=8)
        rows = [arena.alloc() for __ in range(8)]
        assert sorted(rows) == list(range(8))
        assert len(arena) == 8

    def test_free_recycles(self):
        arena = EmbeddingArena(4, 0, initial_rows=4)
        row = arena.alloc()
        arena.free(row)
        assert len(arena) == 0
        assert arena.alloc() == row

    def test_free_rejects_bad_row(self):
        arena = EmbeddingArena(4, 0, initial_rows=4)
        with pytest.raises(ServerError):
            arena.free(99)

    def test_row_width_includes_state(self):
        arena = EmbeddingArena(4, 4, initial_rows=2)
        assert arena.row_width == 8
        assert arena.data.shape == (2, 8)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ServerError):
            EmbeddingArena(0, 0)
        with pytest.raises(ServerError):
            EmbeddingArena(4, -1)
        with pytest.raises(ServerError):
            EmbeddingArena(4, 0, initial_rows=0)


class TestGrowth:
    def test_grow_preserves_contents(self):
        arena = EmbeddingArena(2, 0, initial_rows=2)
        r0, r1 = arena.alloc(), arena.alloc()
        arena.data[r0] = [1.0, 2.0]
        arena.data[r1] = [3.0, 4.0]
        old = arena.data
        r2 = arena.alloc()  # forces a doubling
        assert arena.data is not old  # growth replaces the matrix
        assert arena.capacity == 4
        assert arena.data[r0].tolist() == [1.0, 2.0]
        assert arena.data[r1].tolist() == [3.0, 4.0]
        assert r2 not in (r0, r1)

    def test_many_allocs(self):
        arena = EmbeddingArena(3, 1, initial_rows=2)
        rows = [arena.alloc() for __ in range(100)]
        assert len(set(rows)) == 100
        assert arena.capacity >= 100
        assert len(arena) == 100

    def test_float32(self):
        arena = EmbeddingArena(3, 2, initial_rows=1)
        assert arena.data.dtype == np.float32
