"""IncrementalCheckpointer: dirty tracking and crash atomicity."""

import numpy as np
import pytest

from repro.baselines.incremental import IncrementalCheckpointer
from repro.errors import RecoveryError
from repro.pmem.pool import PmemPool


@pytest.fixture
def live_state():
    return {}


@pytest.fixture
def checkpointer(live_state):
    pool = PmemPool(1 << 16)
    return IncrementalCheckpointer(
        pool,
        entry_bytes=8,
        read_state=lambda keys: {k: live_state[k] for k in keys},
    )


def w(v):
    return np.array([v, v], dtype=np.float32)


class TestDirtyTracking:
    def test_dirty_accumulates_and_clears(self, checkpointer, live_state):
        live_state.update({1: w(1), 2: w(2)})
        checkpointer.mark_dirty([1, 2])
        assert checkpointer.dirty_count == 2
        stats = checkpointer.checkpoint(0)
        assert stats.entries_written == 2
        assert checkpointer.dirty_count == 0

    def test_duplicates_counted_once(self, checkpointer):
        checkpointer.mark_dirty([1, 1, 1])
        assert checkpointer.dirty_count == 1

    def test_delta_only_on_second_checkpoint(self, checkpointer, live_state):
        live_state.update({1: w(1), 2: w(2), 3: w(3)})
        checkpointer.mark_dirty([1, 2, 3])
        checkpointer.checkpoint(0)
        live_state[2] = w(20)
        checkpointer.mark_dirty([2])
        stats = checkpointer.checkpoint(1)
        assert stats.entries_written == 1
        assert stats.bytes_written == 8


class TestRestore:
    def test_restore_merges_deltas(self, checkpointer, live_state):
        live_state.update({1: w(1), 2: w(2)})
        checkpointer.mark_dirty([1, 2])
        checkpointer.checkpoint(0)
        live_state[1] = w(10)
        checkpointer.mark_dirty([1])
        checkpointer.checkpoint(1)
        batch_id, state = checkpointer.restore()
        assert batch_id == 1
        assert state[1][0] == 10
        assert state[2][0] == 2

    def test_restore_without_checkpoint(self, checkpointer):
        with pytest.raises(RecoveryError):
            checkpointer.restore()

    def test_restore_from_pool_after_crash(self, checkpointer, live_state):
        live_state[1] = w(5)
        checkpointer.mark_dirty([1])
        checkpointer.checkpoint(3)
        pool = checkpointer.pool
        pool.crash()
        batch_id, state = IncrementalCheckpointer.restore_from_pool(pool)
        assert batch_id == 3
        assert state[1][0] == 5

    def test_stats_history(self, checkpointer, live_state):
        live_state[1] = w(1)
        checkpointer.mark_dirty([1])
        checkpointer.checkpoint(0)
        assert len(checkpointer.stats_history) == 1
        assert checkpointer.stats_history[0].sim_seconds > 0


class TestReadEntries:
    def test_masks_the_keys_never_checkpointed(self, checkpointer, live_state):
        live_state.update({1: w(1), 2: w(2)})
        checkpointer.mark_dirty(np.array([2, 1, 2], dtype=np.uint64))
        checkpointer.checkpoint(0)
        found, rows = checkpointer.read_entries(np.array([2, 5, 1], dtype=np.uint64))
        assert found.tolist() == [True, False, True]
        assert rows.tolist() == [[2.0, 2.0], [1.0, 1.0]]
        found, rows = checkpointer.read_entries(np.array([5], dtype=np.uint64))
        assert not found.any() and rows.shape == (0, 2)
