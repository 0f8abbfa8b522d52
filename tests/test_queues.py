"""Access queue and checkpoint request queue semantics."""

import pytest

import numpy as np

from repro.core.queues import AccessQueue, CheckpointRequestQueue
from repro.errors import CheckpointError, ServerError


def slots(*ids):
    return np.array(ids, dtype=np.int64)


class TestAccessQueue:
    def test_append_pop_batch(self):
        queue = AccessQueue()
        queue.append(0, slots(1, 2, 3))
        assert queue.pop_batch(0).tolist() == [1, 2, 3]
        assert len(queue) == 0

    def test_multiple_tasks_same_batch_drain_together(self):
        """Each worker's pull appends its own task; the maintainer for
        batch n consumes them all."""
        queue = AccessQueue()
        queue.append(0, slots(1))
        queue.append(0, slots(2))
        assert queue.pop_batch(0).tolist() == [1, 2]

    def test_stale_tasks_drain_with_later_round(self):
        queue = AccessQueue()
        queue.append(0, slots(1))
        queue.append(1, slots(2))
        assert queue.pop_batch(1).tolist() == [1, 2]

    def test_future_batch_at_head_rejected(self):
        queue = AccessQueue()
        queue.append(5, slots(1))
        with pytest.raises(ServerError):
            queue.pop_batch(3)
        assert queue.pending_entries == 1  # nothing was dequeued

    def test_future_batch_behind_the_round_stays_queued(self):
        """Pulls queued ahead (a prefetch window) wait for their own
        round; the round at hand loses none of its accesses."""
        queue = AccessQueue()
        queue.append(5, slots(1, 2))
        queue.append(6, slots(3))
        queue.append(5, slots(4))
        assert queue.pop_batch(5).tolist() == [1, 2, 4]
        assert queue.pending_entries == 1
        assert queue.pop_batch(6).tolist() == [3]

    def test_discard_scrubs_pending_tasks(self):
        queue = AccessQueue()
        queue.append(0, slots(1, 2, 1))
        queue.append(1, slots(2, 3))
        queue.discard(slots(1, 3))
        assert queue.pop_batch(1).tolist() == [2, 2]

    def test_pending_counters(self):
        queue = AccessQueue()
        queue.append(0, slots(1, 2))
        queue.append(0, slots(3))
        assert queue.pending_entries == 3
        assert queue.total_entries_enqueued == 3

    def test_pop_empty_returns_nothing(self):
        assert AccessQueue().pop_batch(0).tolist() == []


class TestCheckpointRequestQueue:
    def test_head_none_when_idle(self):
        assert CheckpointRequestQueue().head() is None

    def test_fifo_order(self):
        queue = CheckpointRequestQueue()
        queue.push(5)
        queue.push(9)
        assert queue.head() == 5
        assert queue.pop() == 5
        assert queue.head() == 9

    def test_non_monotone_request_rejected(self):
        queue = CheckpointRequestQueue()
        queue.push(5)
        with pytest.raises(CheckpointError):
            queue.push(5)
        with pytest.raises(CheckpointError):
            queue.push(3)

    def test_pop_empty_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointRequestQueue().pop()

    def test_pending_snapshot(self):
        queue = CheckpointRequestQueue()
        queue.push(1)
        queue.push(2)
        assert queue.pending() == [1, 2]
        assert queue.total_requested == 2
