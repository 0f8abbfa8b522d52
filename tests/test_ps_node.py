"""PSNode: pull/maintain/push lifecycle, determinism, crash handoff."""

import numpy as np
import pytest

from repro.core.optimizers import PSAdagrad
from repro.errors import CheckpointError, ServerError
from repro.pmem.space import EntryBlock

from tests.conftest import DIM, make_node


def grads(n, value=1.0):
    return np.full((n, DIM), value, dtype=np.float32)


class TestLifecycle:
    def test_pull_maintain_push(self, node):
        result = node.pull([1, 2], 0)
        assert result.created == 2
        node.maintain(0)
        assert node.push([1, 2], grads(2), 0) == 2
        assert node.latest_completed_batch == 0

    def test_num_entries(self, node):
        node.pull([1, 2, 3], 0)
        assert node.num_entries == 3

    def test_state_snapshot(self, node):
        node.pull([1, 2], 0)
        node.maintain(0)
        snapshot = node.state_snapshot()
        assert set(snapshot) == {1, 2}

    def test_initializer_is_key_deterministic(self):
        """Initial weights depend only on (seed, key), never on order."""
        a = make_node(seed=3)
        b = make_node(seed=3)
        a.pull([5, 9], 0)
        b.pull([9], 0)
        b.pull([5], 1)
        assert np.array_equal(a.read_weights(5), b.read_weights(5))
        assert np.array_equal(a.read_weights(9), b.read_weights(9))

    def test_different_seeds_differ(self):
        a = make_node(seed=1)
        b = make_node(seed=2)
        a.pull([5], 0)
        b.pull([5], 0)
        assert not np.array_equal(a.read_weights(5), b.read_weights(5))


class TestOptimizerState:
    def test_adagrad_state_survives_eviction(self):
        node = make_node(capacity_entries=1, optimizer=PSAdagrad(lr=0.1))
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        after_first = np.array(node.read_weights(1), copy=True)
        # Evict key 1 by touching key 2, then update key 1 again: the
        # accumulator must have persisted, so the second step is smaller.
        node.pull([2], 1)
        node.maintain(1)
        node.push([2], grads(1), 1)
        node.pull([1], 2)
        node.maintain(2)
        node.push([1], grads(1), 2)
        first_step = np.abs(after_first - np.full(DIM, node.read_weights(1)[0]))
        state = node.cache.read_current_state(1)[DIM:]
        assert state.shape == (DIM,)
        # accumulator grew: 0.1 (init) + 1 + 1
        assert np.allclose(state, 2.1)


    def test_ingested_row_of_wrong_width_is_a_typed_error(self):
        """Rows written without the accumulator (an SGD node's export)
        cannot become an Adagrad node's slab rows: the ingest is refused
        whole, with an error naming both widths, instead of silently
        changing storage."""
        node = make_node(optimizer=PSAdagrad(lr=0.1))
        block = EntryBlock(
            keys=np.array([6, 7], dtype=np.uint64),
            nversions=np.array([1, 1], dtype=np.uint32),
            batch_ids=np.array([3, 3], dtype=np.int64),
            rows=np.ones((2, DIM), dtype=np.float32),
        )
        with pytest.raises(
            ServerError, match=rf"rows are {DIM} floats wide.* are {2 * DIM} "
        ):
            node.ingest_entries(block)
        assert node.num_entries == 0 and node.store.total_versions() == 0
        node.cache.validate()


class TestCheckpointControl:
    def test_request_without_training_rejected(self, node):
        with pytest.raises(CheckpointError):
            node.request_checkpoint()

    def test_request_defaults_to_latest_batch(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        assert node.request_checkpoint() == 0
        assert node.coordinator.head() == 0

    def test_barrier_checkpoint_completes(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        node.barrier_checkpoint()
        assert node.coordinator.last_completed == 0


class TestCrash:
    def test_crash_returns_surviving_pool(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        node.barrier_checkpoint()
        pool = node.crash()
        assert pool is node.pool
        assert pool.root.get("checkpointed_batch_id") == 0


class TestMetadataOnly:
    def test_no_weights_anywhere(self):
        node = make_node(metadata_only=True)
        result = node.pull([1, 2], 0)
        assert result.weights is None
        node.maintain(0)
        node.push([1, 2], None, 0)
        assert node.num_entries == 2
