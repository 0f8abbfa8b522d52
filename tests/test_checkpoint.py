"""CheckpointCoordinator: requests, completion, retention barriers."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointCoordinator
from repro.errors import CheckpointError
from repro.pmem.pool import PmemPool
from repro.pmem.space import VersionedEntryStore
from tests.harness.keyed_store import KeyedStore

ROW = np.zeros((1, 4), dtype=np.float32)  # one 16-byte entry


@pytest.fixture
def store():
    return KeyedStore(VersionedEntryStore(PmemPool(1 << 16), entry_bytes=16))


@pytest.fixture
def coordinator(store):
    return CheckpointCoordinator(store)


class TestCoordinator:
    def test_initial_state(self, coordinator):
        assert coordinator.last_completed == -1
        assert coordinator.head() is None
        assert not coordinator.has_completed_any

    def test_request_and_head(self, coordinator):
        coordinator.request(5)
        assert coordinator.head() == 5
        assert coordinator.max_pending() == 5

    def test_max_pending_with_queue(self, coordinator):
        coordinator.request(5)
        coordinator.request(9)
        assert coordinator.head() == 5
        assert coordinator.max_pending() == 9

    def test_request_not_newer_than_completed_rejected(self, coordinator):
        coordinator.request(5)
        coordinator.complete_head()
        with pytest.raises(CheckpointError):
            coordinator.request(5)

    def test_complete_head_persists_id(self, coordinator, store):
        coordinator.request(5)
        assert coordinator.complete_head() == 5
        assert coordinator.last_completed == 5
        assert store.checkpointed_batch_id() == 5
        assert coordinator.has_completed_any

    def test_complete_all_pending(self, coordinator):
        coordinator.request(3)
        coordinator.request(7)
        # The cache completes a queue one head at a time, oldest first.
        assert [coordinator.complete_head() for __ in range(2)] == [3, 7]
        assert coordinator.head() is None
        assert coordinator.last_completed == 7

    def test_barriers_follow_requests(self, coordinator, store):
        coordinator.request(5)
        store.put([1], 2, ROW)
        store.put([1], 9, ROW)
        assert store.versions_of(1) == [2, 9]  # 2 kept for checkpoint 5

    def test_barriers_include_last_completed(self, coordinator, store):
        coordinator.request(5)
        coordinator.complete_head()
        store.put([1], 4, ROW)
        store.put([1], 8, ROW)
        assert store.versions_of(1) == [4, 8]  # 4 recoverable for ckpt 5

    def test_completion_recycles(self, coordinator, store):
        coordinator.request(5)
        store.put([1], 2, ROW)
        store.put([1], 9, ROW)
        coordinator.request(12)
        store.put([1], 13, ROW)
        coordinator.complete_head()  # ckpt 5 done; barrier moves on
        coordinator.complete_head()  # ckpt 12 done -> only <=12 + newest
        assert store.versions_of(1) == [9, 13]

    def test_external_barrier_retains(self, coordinator, store):
        coordinator.request(5)
        coordinator.complete_head()
        coordinator.set_external_barrier(5)
        coordinator.request(10)
        coordinator.complete_head()
        # Own last_completed is 10 but the cluster is only at 5: both
        # barriers hold.
        store.put([1], 4, ROW)
        store.put([1], 7, ROW)
        store.put([1], 11, ROW)
        assert store.versions_of(1) == [4, 7, 11]

    def test_recovered_coordinator_reads_durable_id(self, store):
        store.set_checkpointed_batch_id(7)
        fresh = CheckpointCoordinator(store)
        assert fresh.last_completed == 7

