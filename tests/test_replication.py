"""Synchronous replication: replica identity, failover, double faults."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core.replication import (
    FAILOVER_SECONDS,
    ReplicatedPSNode,
    replication_vs_recovery_seconds,
)
from repro.core.recovery import recover_node
from repro.core.optimizers import PSSGD
from repro.errors import ServerError

DIM = 4


def make_node(capacity_entries=4):
    return ReplicatedPSNode(
        0,
        ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=9),
        CacheConfig(capacity_bytes=capacity_entries * DIM * 4),
        PSSGD(lr=0.25),
    )


def cycle(node, keys, batch, value=0.5):
    node.pull(keys, batch)
    node.maintain(batch)
    node.push(keys, np.full((len(keys), DIM), value, dtype=np.float32), batch)


class TestReplicaIdentity:
    def test_replicas_identical_after_training(self):
        node = make_node()
        for batch in range(8):
            cycle(node, [batch % 5, (batch + 1) % 5], batch)
        node.verify_replicas_identical()

    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_replicas_identical_for_any_schedule(self, schedule):
        node = make_node(capacity_entries=2)
        for batch, keys in enumerate(schedule):
            cycle(node, keys, batch)
        node.verify_replicas_identical()


class TestFailover:
    def test_failover_preserves_live_state(self):
        """Unlike recovery, failover loses NOTHING — not even the
        batches after the last checkpoint."""
        node = make_node()
        cycle(node, [1, 2], 0)
        node.barrier_checkpoint(0)
        cycle(node, [1, 2], 1)  # past the checkpoint
        live = node.state_snapshot()
        node.kill_primary()
        elapsed = node.failover()
        assert elapsed == FAILOVER_SECONDS
        promoted = node.state_snapshot()
        for key, weights in live.items():
            assert np.array_equal(promoted[key], weights)

    def test_training_continues_after_failover(self):
        node = make_node()
        cycle(node, [1], 0)
        node.kill_primary()
        node.failover()
        assert node.degraded
        cycle(node, [1, 2], 1)
        assert node.num_entries == 2

    def test_failover_without_failure_rejected(self):
        with pytest.raises(ServerError):
            make_node().failover()

    def test_verify_after_failover_rejected(self):
        node = make_node()
        cycle(node, [1], 0)
        node.kill_primary()
        node.failover()
        with pytest.raises(ServerError):
            node.verify_replicas_identical()


class TestDoubleFault:
    def test_checkpoint_recovery_still_works(self):
        """Both replicas die: fall back to the paper's recovery path on
        the promoted replica's surviving pool."""
        node = make_node()
        cycle(node, [1, 2, 3], 0)
        node.barrier_checkpoint(0)
        expected = node.state_snapshot()
        cycle(node, [1, 2, 3], 1)
        node.kill_primary()
        node.failover()
        pool = node.primary.crash()  # the second fault
        recovered, report = recover_node(
            pool,
            node.server_config,
            CacheConfig(capacity_bytes=4 * DIM * 4),
            PSSGD(lr=0.25),
        )
        assert report.checkpoint_batch_id == 0
        got = recovered.state_snapshot()
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights)


class TestRingFollowing:
    """Replicas mirror migrations (docs/ELASTICITY.md: a failover must
    never serve a pre-migration shard)."""

    def test_ingest_and_drop_mirror_to_backup(self):
        donor = make_node()
        for batch in range(4):
            cycle(donor, [1, 2, 3], batch)
        donor.barrier_checkpoint(3)  # make the live state durable
        entries = donor.export_entries([1, 2])

        node = make_node()
        for batch in range(4):
            cycle(node, [7, 8], batch)
        assert node.ingest_entries(entries) == 2
        node.verify_replicas_identical()
        assert {1, 2} <= set(node.owned_keys())

        assert node.drop_keys([1, 7]) == 2
        node.verify_replicas_identical()
        assert set(node.owned_keys()) == {2, 8}

    def test_failover_serves_post_migration_shard(self):
        """After a mirrored ingest, the promoted backup holds the
        migrated entries bitwise."""
        donor = make_node()
        for batch in range(4):
            cycle(donor, [1, 2, 3], batch)
        donor.barrier_checkpoint(3)  # make the live state durable
        entries = donor.export_entries([1, 2, 3])
        expected = {k: v.copy() for k, v in donor.state_snapshot().items()}

        node = make_node()
        node.ingest_entries(entries)
        node.kill_primary()
        node.failover()
        got = node.state_snapshot()
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights)


class TestTradeoff:
    def test_failover_constant_recovery_scales(self):
        small_fo, small_rec = replication_vs_recovery_seconds(
            entries=1_000_000, entry_bytes=256
        )
        large_fo, large_rec = replication_vs_recovery_seconds(
            entries=2_100_000_000, entry_bytes=256
        )
        assert small_fo == large_fo == FAILOVER_SECONDS
        assert large_rec > 100 * small_rec
        assert large_rec == pytest.approx(380.2, rel=0.12)
