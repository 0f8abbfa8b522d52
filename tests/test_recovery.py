"""Node recovery: scan, discard, rebuild — Section V-C / Figure 14."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.entry import Location
from repro.core.recovery import estimate_recovery_seconds, recover_node
from repro.errors import RecoveryError

from tests.conftest import DIM, make_node
from tests.harness.keyed_store import keyed


def grads(n, value=1.0):
    return np.full((n, DIM), value, dtype=np.float32)


def train(node, keys, batch):
    node.pull(keys, batch)
    node.maintain(batch)
    node.push(keys, grads(len(keys)), batch)


def node_configs(node):
    return node.server_config, node.cache_config


class TestRecoverNode:
    def test_roundtrip_restores_checkpoint_state(self):
        node = make_node()
        keys = list(range(10))
        train(node, keys, 0)
        node.barrier_checkpoint()
        snapshot = node.state_snapshot()
        train(node, keys, 1)  # post-checkpoint updates to discard
        pool = node.crash()
        server_config, cache_config = node_configs(node)
        recovered, report = recover_node(pool, server_config, cache_config)
        assert report.checkpoint_batch_id == 0
        assert report.entries_recovered == 10
        restored = recovered.state_snapshot()
        for key, weights in snapshot.items():
            assert np.array_equal(restored[key], weights)

    def test_recovered_entries_are_pmem_resident(self):
        node = make_node()
        train(node, [1, 2], 0)
        node.barrier_checkpoint()
        pool = node.crash()
        recovered, __ = recover_node(pool, *node_configs(node))
        assert recovered.cache.cached_entries == 0
        for key in (1, 2):
            assert recovered.cache.index.location_of(key) == Location.PMEM

    def test_keys_created_after_checkpoint_dropped(self):
        node = make_node()
        train(node, [1, 2], 0)
        node.barrier_checkpoint()
        train(node, [1, 2, 3], 1)
        node.cache.drop_cache()  # key 3 is durable but post-checkpoint
        pool = node.crash()
        recovered, report = recover_node(pool, *node_configs(node))
        assert 3 not in recovered.cache.index
        assert report.versions_discarded > 0

    def test_recovery_without_checkpoint_fails(self):
        node = make_node()
        train(node, [1], 0)
        pool = node.crash()
        with pytest.raises(RecoveryError):
            recover_node(pool, *node_configs(node))

    def test_target_newer_than_durable_rejected(self):
        node = make_node()
        train(node, [1], 0)
        node.barrier_checkpoint()
        pool = node.crash()
        with pytest.raises(RecoveryError):
            recover_node(pool, *node_configs(node), target_batch_id=5)

    def test_recover_to_older_target(self):
        node = make_node()
        keys = [1, 2]
        train(node, keys, 0)
        node.barrier_checkpoint()
        state_at_0 = node.state_snapshot()
        train(node, keys, 1)
        node.coordinator.set_external_barrier(0)  # cluster held at 0
        node.request_checkpoint(1)
        node.cache.complete_pending_checkpoints()
        pool = node.crash()
        recovered, report = recover_node(
            pool, *node_configs(node), target_batch_id=0
        )
        assert report.checkpoint_batch_id == 0
        restored = recovered.state_snapshot()
        for key in keys:
            assert np.array_equal(restored[key], state_at_0[key])

    def test_training_continues_after_recovery(self):
        node = make_node()
        train(node, [1, 2], 0)
        node.barrier_checkpoint()
        pool = node.crash()
        recovered, __ = recover_node(pool, *node_configs(node))
        train(recovered, [1, 2, 3], 1)
        assert recovered.num_entries == 3

    def test_coordinator_state_after_recovery(self):
        node = make_node()
        train(node, [1], 0)
        node.barrier_checkpoint()
        pool = node.crash()
        recovered, __ = recover_node(pool, *node_configs(node))
        assert recovered.coordinator.last_completed == 0
        assert recovered.latest_completed_batch == 0
        # A fresh checkpoint request for a newer batch must work.
        train(recovered, [1], 1)
        recovered.barrier_checkpoint()
        assert recovered.coordinator.last_completed == 1


class _Killed(Exception):
    """The node process died here."""


class TestMaintainCrashPoints:
    """Durability order of one plan-then-move round.

    The round below evicts 0, 1, 2 (their batch-1 state is what the
    pending checkpoint 1 must capture) and re-loads key 0; once its rows
    have moved, nothing resident owes checkpoint 1 and the round
    completes it. The Checkpointed Batch ID may only become durable
    after every flush the checkpoint depends on: killing the node
    anywhere in the round must recover exactly one checkpoint, bit for
    bit.
    """

    def crashed_round(self, kill):
        node = make_node(capacity_entries=3)
        train(node, [0, 1, 2], 0)
        node.barrier_checkpoint()
        at_0 = node.state_snapshot()
        train(node, [0, 1, 2], 1)
        node.request_checkpoint(1)
        at_1 = node.state_snapshot()
        node.pull([3, 4, 5, 0], 2)
        kill(node)
        with pytest.raises(_Killed):
            node.maintain(2)
        durable_id = node.store.checkpointed_batch_id()
        recovered, report = recover_node(node.crash(), *node_configs(node))
        assert report.checkpoint_batch_id == durable_id
        restored = recovered.state_snapshot()
        expected = {0: at_0, 1: at_1}[durable_id]
        assert set(restored) == set(expected)
        for key, weights in expected.items():
            assert np.array_equal(restored[key], weights), f"key {key}"
        return durable_id

    @staticmethod
    def dies(obj, name):
        def dead(*args, **kwargs):
            raise _Killed(name)

        setattr(obj, name, dead)

    def test_killed_before_the_bulk_put(self):
        assert self.crashed_round(lambda node: self.dies(node.store, "put")) == 0

    def test_killed_between_the_bulk_put_and_complete_head(self):
        def kill(node):
            def dead():
                # Every flush checkpoint 1 depends on is already durable ...
                versions, __ = keyed(node).read_at_most([0, 1, 2], 1)
                assert versions.tolist() == [1, 1, 1]
                raise _Killed("complete_head")

            node.coordinator.complete_head = dead

        # ... but its id is not: recovery lands on checkpoint 0.
        assert self.crashed_round(kill) == 0

    def test_killed_between_the_bulk_load_and_complete_head(self):
        assert (
            self.crashed_round(lambda node: self.dies(node.cache.arena, "alloc_many"))
            == 0
        )

    def test_killed_right_after_complete_head(self):
        def kill(node):
            complete = node.coordinator.complete_head

            def then_dead():
                complete()
                raise _Killed("after complete_head")

            node.coordinator.complete_head = then_dead

        assert self.crashed_round(kill) == 1


class TestRecoveryTiming:
    def test_time_scales_with_entries(self):
        small = estimate_recovery_seconds(entries=1000, versions=1000, entry_bytes=256)
        large = estimate_recovery_seconds(entries=10_000, versions=10_000, entry_bytes=256)
        assert large > small

    def test_parallelism_divides_time(self):
        solo = estimate_recovery_seconds(entries=10_000, versions=10_000, entry_bytes=256)
        sharded = estimate_recovery_seconds(
            entries=10_000, versions=10_000, entry_bytes=256, parallelism=4
        )
        assert sharded == pytest.approx(solo / 4)

    def test_paper_scale_matches_figure_14(self):
        """At the paper's scale (2.1 B entries, 256 B each) the model
        should land near the reported 380.2 s."""
        seconds = estimate_recovery_seconds(
            entries=2_100_000_000, versions=2_100_000_000, entry_bytes=256
        )
        assert 330 < seconds < 430

    def test_invalid_parallelism(self):
        node = make_node()
        train(node, [1], 0)
        node.barrier_checkpoint()
        pool = node.crash()
        with pytest.raises(RecoveryError):
            recover_node(pool, *node_configs(node), parallelism=0)
