"""PipelinedCache: Algorithms 1 and 2 behaviour."""

import numpy as np
import pytest

from repro.config import CacheConfig, EvictionPolicy
from repro.core.cache import PipelinedCache
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.entry import Location
from repro.core.optimizers import PSSGD
from repro.errors import KeyNotFoundError, ServerError
from repro.pmem.pool import PmemPool
from repro.pmem.space import VersionedEntryStore

from tests.conftest import DIM, ENTRY_BYTES, key_valued_rows, make_cache
from tests.harness.keyed_store import keyed


def grads(keys, value=1.0):
    return np.full((len(keys), DIM), value, dtype=np.float32)


class TestPull:
    def test_new_keys_initialised_in_dram(self, cache):
        result = cache.pull([1, 2], batch_id=0)
        assert result.created == 2
        assert result.hits == 0
        assert np.array_equal(result.weights[0], np.full(DIM, 1.0))
        assert np.array_equal(result.weights[1], np.full(DIM, 2.0))
        assert cache.index.location_of(1) == Location.DRAM

    def test_second_pull_hits_dram(self, cache):
        cache.pull([1], 0)
        result = cache.pull([1], 0)
        assert result.hits == 1
        assert result.created == 0

    def test_pull_does_not_touch_lru(self, cache):
        """Maintenance is deferred: the pull path never reorders."""
        cache.pull([1, 2, 3], 0)
        assert cache.cached_entries == 0
        assert len(cache.access_queue) == 1

    def test_pull_from_pmem_is_a_miss(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        cache.drop_cache()
        result = cache.pull([1], 1)
        assert result.misses == 1
        assert np.array_equal(result.weights[0], np.full(DIM, 1.0))

    def test_duplicate_keys_in_one_pull(self, cache):
        result = cache.pull([1, 1, 1], 0)
        assert result.created == 1
        assert result.hits == 2
        assert result.weights.shape == (3, DIM)

    def test_initializer_shape_checked(self, store, coordinator):
        cache = PipelinedCache(
            CacheConfig(capacity_bytes=1024),
            store,
            coordinator,
            dim=DIM,
            initializer=lambda keys: np.zeros((len(keys), DIM + 1), dtype=np.float32),
        )
        with pytest.raises(ServerError):
            cache.pull([1], 0)


class TestMaintain:
    def test_accessed_entries_enter_lru(self, cache):
        cache.pull([1, 2], 0)
        result = cache.maintain(0)
        assert result.processed == 2
        assert cache.cached_keys() == [2, 1]

    def test_versions_advance_to_batch(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        cache.pull([1], 3)
        cache.maintain(3)
        assert cache.index.find(1).version == 3

    def test_eviction_beyond_capacity(self, cache):
        cache.pull([1, 2, 3, 4, 5], 0)  # capacity is 4
        result = cache.maintain(0)
        assert result.evictions == 1
        assert cache.cached_entries == 4
        assert cache.index.location_of(1) == Location.PMEM

    def test_eviction_flushes_victim_weights(self, cache):
        cache.pull([1, 2, 3, 4, 5], 0)
        cache.maintain(0)
        __, stored = keyed(cache).read_latest([1])
        assert np.array_equal(stored[0, :DIM], np.full(DIM, 1.0))

    def test_miss_load_promotes_to_dram(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        cache.drop_cache()
        cache.pull([1], 1)
        result = cache.maintain(1)
        assert result.loads == 1
        assert cache.index.location_of(1) == Location.DRAM

    def test_lru_order_follows_access_recency(self, cache):
        cache.pull([1, 2, 3], 0)
        cache.maintain(0)
        cache.pull([1], 1)
        cache.maintain(1)
        cache.pull([4, 5], 2)  # evict 2 (the oldest)
        cache.maintain(2)
        assert cache.index.location_of(2) == Location.PMEM
        assert cache.index.location_of(1) == Location.DRAM

    def test_maintain_keeps_invariants(self, cache):
        for batch in range(6):
            cache.pull([batch, batch + 1, batch + 2], batch)
            cache.maintain(batch)
            cache.validate()


class TestUpdate:
    def test_sgd_applied(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        cache.update([1], grads([1], 1.0), 0)
        # lr=0.5: w = 1.0 - 0.5*1.0 = 0.5
        assert np.allclose(cache.read_current_weights(1), 0.5)

    def test_duplicate_gradients_aggregated(self, cache):
        cache.pull([1, 1], 0)
        cache.maintain(0)
        cache.update([1, 1], grads([1, 1], 1.0), 0)
        # summed grad = 2.0 -> w = 1.0 - 0.5*2 = 0.0
        assert np.allclose(cache.read_current_weights(1), 0.0)

    def test_update_unknown_key_rejected(self, cache):
        with pytest.raises(KeyNotFoundError):
            cache.update([99], grads([99]), 0)

    def test_update_shape_checked(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        with pytest.raises(ServerError):
            cache.update([1], np.zeros((1, DIM + 1), dtype=np.float32), 0)

    def test_update_marks_dirty(self, cache):
        cache.pull([1], 0)
        cache.maintain(0)
        cache.update([1], grads([1]), 0)
        assert cache.index.find(1).dirty

    def test_update_entry_still_in_pmem_rmw(self, cache):
        """If an entry missed and no maintain ran (degenerate order),
        updates read-modify-write through the store."""
        cache.pull([1], 0)
        cache.maintain(0)
        cache.drop_cache()
        cache.pull([1], 1)
        cache.access_queue.pop_batch(1)  # swallow the maintenance task
        cache.update([1], grads([1], 1.0), 1)
        assert np.allclose(cache.read_current_weights(1), 0.5)


class TestCheckpointCoDesign:
    """Algorithm 2's checkpoint logic inside maintenance."""

    def _train_batch(self, cache, keys, batch):
        cache.pull(keys, batch)
        cache.maintain(batch)
        cache.update(keys, grads(keys, 0.1), batch)

    def test_flush_before_version_advance(self, cache):
        self._train_batch(cache, [1], 0)
        cache.coordinator.request(0)
        # Accessing key 1 at batch 1 must first persist its batch-0 state.
        state_at_0 = np.array(cache.read_current_weights(1), copy=True)
        self._train_batch(cache, [1], 1)
        stored_batch, stored = keyed(cache).read_at_most([1], 0)
        assert stored_batch[0] == 0
        assert np.array_equal(stored[0, :DIM], state_at_0)

    def test_completion_via_eviction(self, cache):
        self._train_batch(cache, [1, 2, 3, 4], 0)
        cache.coordinator.request(0)
        # Batch 1 touches all cached entries (flush-before-advance) and
        # brings in a new key, forcing an eviction whose victim now has
        # version 1 > 0 -> checkpoint 0 completes.
        self._train_batch(cache, [1, 2, 3, 4, 5], 1)
        assert cache.coordinator.last_completed == 0
        assert cache.store.checkpointed_batch_id() == 0

    def test_no_completion_while_old_versions_cached(self, cache):
        self._train_batch(cache, [1, 2, 3, 4], 0)
        cache.coordinator.request(0)
        # Batch 1 touches only key 1; keys 2-4 still have version 0, so
        # the checkpoint must stay open.
        self._train_batch(cache, [1], 1)
        assert cache.coordinator.last_completed == -1

    def test_a_push_after_the_request_keeps_the_checkpoint_whole(self, cache):
        """A round may run ahead of its batch's push (a lookahead
        window): key 1's round 1 ran before checkpoint 0 was requested,
        so batch 1's push is the first change after the request. It
        flushes the state at 0 before it lands, and the next round
        completes checkpoint 0 with that state."""
        self._train_batch(cache, [1], 0)
        cache.pull([1], 1)
        cache.maintain(1)
        at_0 = np.array(cache.read_current_weights(1), copy=True)
        cache.coordinator.request(0)
        cache.update([1], grads([1], 0.1), 1)
        cache.pull([2], 2)
        cache.maintain(2)
        assert cache.coordinator.last_completed == 0
        versions, stored = keyed(cache).read_at_most([1], 0)
        assert versions[0] == 0 and np.array_equal(stored[0, :DIM], at_0)

    def test_forced_completion_at_barrier(self, cache):
        self._train_batch(cache, [1, 2], 0)
        cache.coordinator.request(0)
        completed = cache.complete_pending_checkpoints()
        assert completed == [0]
        assert cache.store.checkpointed_batch_id() == 0

    def test_complete_pending_noop_when_idle(self, cache):
        assert cache.complete_pending_checkpoints() == []

    def test_recovered_state_is_checkpoint_state(self, cache):
        self._train_batch(cache, [1, 2], 0)
        cache.coordinator.request(0)
        expected = {
            key: np.array(cache.read_current_weights(key), copy=True)
            for key in (1, 2)
        }
        self._train_batch(cache, [1, 2], 1)  # post-checkpoint updates
        cache.complete_pending_checkpoints()  # completes ckpt 0
        cache.store.pool.crash()
        recovered = keyed(cache).recover()
        assert recovered == {1: 0, 2: 0}
        for key in (1, 2):
            assert np.array_equal(
                keyed(cache).read_latest([key])[1][0, :DIM], expected[key]
            )


class TestDirtyTracking:
    def test_clean_eviction_skips_flush_when_tracking(self, store, coordinator):
        cache = make_cache(store, coordinator, capacity_entries=2, track_dirty=True)
        cache.pull([1, 2], 0)
        cache.maintain(0)
        flushes_before = cache.metrics.cache.flushes
        # Entries 1, 2 are dirty (new). A barrier checkpoint flushes them
        # (they owe it), then they are evicted without an update.
        coordinator.request(0)
        cache.complete_pending_checkpoints()
        cache.pull([3, 4], 1)  # evicts 1 and 2, both clean
        result = cache.maintain(1)
        assert result.evictions == 2
        # Only the maintenance of new entries flushed nothing extra for
        # the clean victims.
        assert cache.metrics.cache.flushes == flushes_before + 2  # the barrier only

    def test_always_flush_without_tracking(self, store, coordinator):
        cache = make_cache(store, coordinator, capacity_entries=2, track_dirty=False)
        cache.pull([1, 2], 0)
        cache.maintain(0)
        coordinator.request(0)
        cache.complete_pending_checkpoints()  # 1 and 2 are clean now
        before = cache.metrics.cache.flushes
        cache.pull([3, 4], 1)
        cache.maintain(1)
        assert cache.metrics.cache.flushes > before  # clean victims flushed


class TestPolicies:
    def test_fifo_does_not_reorder_on_reaccess(self, store, coordinator):
        config = CacheConfig(
            capacity_bytes=2 * ENTRY_BYTES, policy=EvictionPolicy.FIFO
        )
        cache = PipelinedCache(
            config,
            store,
            coordinator,
            dim=DIM,
            initializer=key_valued_rows,
            optimizer=PSSGD(lr=0.5),
        )
        cache.pull([1, 2], 0)
        cache.maintain(0)
        cache.pull([1], 1)  # re-access: FIFO ignores it
        cache.maintain(1)
        cache.pull([3], 2)  # evicts 1 (oldest by insertion)
        cache.maintain(2)
        assert cache.index.location_of(1) == Location.PMEM
        assert cache.index.location_of(2) == Location.DRAM


class TestCountsIgnoreTheBytes:
    def test_zero_rows_count_like_real_rows(self, store, coordinator):
        """What the training simulator leans on: a cache of zero rows
        pushed zero gradients decides, moves and counts exactly what one
        of real rows pushed real gradients does."""
        zero = PipelinedCache(
            CacheConfig(capacity_bytes=2 * ENTRY_BYTES),
            store,
            coordinator,
            dim=DIM,
            initializer=lambda keys: np.zeros((len(keys), DIM), dtype=np.float32),
            optimizer=PSSGD(lr=0.5),
        )
        store2 = VersionedEntryStore(PmemPool(1 << 20), entry_bytes=ENTRY_BYTES)
        value = make_cache(store2, CheckpointCoordinator(store2), capacity_entries=2)
        stream = [[1, 2], [3], [1], [4, 2, 4], [1, 3]]
        for batch, keys in enumerate(stream):
            r1, r2 = zero.pull(keys, batch), value.pull(keys, batch)
            assert (r1.hits, r1.misses, r1.created) == (r2.hits, r2.misses, r2.created)
            assert zero.maintain(batch) == value.maintain(batch)
            assert zero.update(keys, grads(keys, 0.0), batch) == value.update(
                keys, grads(keys), batch
            )
            if batch == 2:
                zero.coordinator.request(batch)
                value.coordinator.request(batch)
        assert zero.metrics.cache == value.metrics.cache
        assert not zero.state_snapshot()[1].any()


class TestBarriers:
    def test_barrier_persists_every_entry_the_checkpoint_needs(self, cache):
        cache.pull([1, 2, 3], 0)
        cache.maintain(0)
        cache.coordinator.request(0)
        assert cache.complete_pending_checkpoints() == [0]
        assert cache.metrics.cache.flushes == cache.metrics.checkpoint_drained_rows == 3
        for key in (1, 2, 3):
            assert keyed(cache).read_at_most([key], 0)[0][0] == 0
        # Nothing is owed a second time: the next barrier flushes nothing.
        cache.coordinator.request(1)
        assert cache.complete_pending_checkpoints() == [1]
        assert cache.metrics.cache.flushes == 3

    def test_drop_cache_empties_and_stays_consistent(self, cache):
        cache.pull([1, 2, 3], 0)
        cache.maintain(0)
        assert cache.drop_cache() == 3
        assert cache.cached_entries == 0
        cache.validate()
        assert np.array_equal(
            cache.read_current_weights(2), np.full(DIM, 2.0)
        )
