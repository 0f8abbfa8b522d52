"""Regression tests for distributed checkpoint-retention races.

Both scenarios were found by the stateful server machine
(tests/test_stateful_server.py) and are pinned here explicitly:

1. **Empty-shard recovery**: a shard that owns no keys still carries
   the durable *Checkpointed Batch ID*; recovery must read it (the
   original code's `pool or PmemPool(...)` dropped empty pools because
   ``PmemPool`` defines ``__len__``).
2. **Straggler retention**: a shard completing checkpoint N+1 must NOT
   recycle checkpoint N's versions while N is still the newest
   checkpoint completed by EVERY shard — in cluster mode the
   coordinator retains its completed history until the external
   (cluster-wide) barrier confirms supersession.

Both run on the in-process facade and on the RPC client, whose shards
must be cluster-mode shards behind the same barrier sync.
"""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.server import OpenEmbeddingServer
from repro.core.optimizers import PSSGD
from repro.network.frontend import RemotePSClient
from repro.pmem.pool import PmemPool
from repro.pmem.space import VersionedEntryStore
from tests.harness.keyed_store import KeyedStore, keyed

DIM = 2
ROW = np.zeros((1, 2), dtype=np.float32)  # one 8-byte entry


BACKENDS = pytest.mark.parametrize(
    "backend", [OpenEmbeddingServer, RemotePSClient], ids=["local", "rpc"]
)


def make_server(backend, num_nodes=3):
    config = ServerConfig(
        num_nodes=num_nodes, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=31
    )
    cache = CacheConfig(capacity_bytes=2 * DIM * 4)
    return backend(config, cache, PSSGD(lr=0.25)), config, cache


def train(server, keys, batch):
    """One step with unit gradients, so every batch moves every touched
    row and a wrong-version read cannot pass for the right one."""
    server.pull(keys, batch)
    server.maintain(batch)
    server.push(keys, np.ones((len(keys), DIM), dtype=np.float32), batch)


class TestEmptyShardRecovery:
    @BACKENDS
    def test_recovery_with_keyless_shards(self, backend):
        """One key, three shards: two shards hold nothing but must still
        recover their checkpoint root."""
        server, config, cache = make_server(backend)
        train(server, [0], 0)
        server.barrier_checkpoint(0)
        expected = server.state_snapshot()
        pools = server.crash()
        assert sum(1 for pool in pools if len(pool) == 0) >= 1
        recovered, reports = OpenEmbeddingServer.recover(
            pools, config, cache, PSSGD(lr=0.25)
        )
        assert all(r.checkpoint_batch_id == 0 for r in reports)
        got = recovered.state_snapshot()
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights)


class TestStragglerRetention:
    @BACKENDS
    def test_racing_shard_keeps_cluster_checkpoint_versions(self, backend):
        """Replays the falsifying schedule: shard completes checkpoints
        0 and 2 back-to-back while a sibling shard is still at 0; the
        cluster must remain recoverable to 0 — and must keep *serving*
        0, the snapshot the inference tier is pinned to."""
        server, config, cache = make_server(backend)
        assert all(node.coordinator.cluster_mode for node in server.nodes)
        train(server, [0, 1], 0)
        server.request_checkpoint(0)
        snapshot_at_0 = server.state_snapshot()
        # Shard 0 races ahead on checkpoint 0.
        server.nodes[0].cache.complete_pending_checkpoints()
        server._sync_external_barriers()
        train(server, [0, 1, 2], 1)
        train(server, [4], 2)
        server.request_checkpoint(2)
        # Key 1's shard completes BOTH pending checkpoints while some
        # sibling has only completed 0 -> global stays 0.
        owner = server.partitioner.node_of(1)
        server.nodes[owner].cache.complete_pending_checkpoints()
        server._sync_external_barriers()
        assert server.global_completed_checkpoint == 0
        # Key 1's batch-0 state must still be recoverable on its shard.
        node = server.nodes[owner]
        entry = node.cache.index.find(1)
        recoverable = (entry.in_dram and entry.version <= 0) or any(
            v <= 0 for v in keyed(node).versions_of(1)
        )
        assert recoverable
        # A read pinned at the cluster snapshot serves the checkpointed
        # row, not the cold initializer.
        served = server.lookup([1])
        assert served.snapshot_id == 0
        assert served.cold == 0
        assert np.array_equal(served.weights[0], snapshot_at_0[1])
        # And a full-cluster crash restores batch 0 exactly.
        pools = server.crash()
        recovered, __ = OpenEmbeddingServer.recover(pools, config, cache, PSSGD(lr=0.25))
        assert recovered.global_completed_checkpoint == 0
        got = recovered.state_snapshot()
        for key, weights in snapshot_at_0.items():
            assert np.array_equal(got[key], weights), key


class TestRpcClusterIsACluster:
    """The RPC client runs its shards exactly as the facade does."""

    def test_shards_and_scaled_out_node_run_in_cluster_mode(self):
        config = ServerConfig(
            num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=31,
        )
        client = RemotePSClient(config, None, PSSGD(lr=0.25))
        train(client, list(range(16)), 0)
        client.barrier_checkpoint(0)
        client.scale_out()
        assert len(client.nodes) == 3
        assert all(node.coordinator.cluster_mode for node in client.nodes)
        # commit_ring re-synced the barrier over the grown membership.
        assert client.global_completed_checkpoint == 0
        assert all(
            node.coordinator._external_barrier == 0 for node in client.nodes
        )

    @pytest.mark.parametrize(
        "barrier",
        [
            lambda client: client.maintain(1),
            lambda client: client.complete_pending_checkpoints(),
        ],
        ids=["maintain", "complete_pending_checkpoints"],
    )
    def test_external_barrier_follows_the_cluster_checkpoint(self, barrier):
        client, __, __ = make_server(RemotePSClient)
        train(client, [0, 1, 2, 4], 0)
        client.request_checkpoint(0)
        # Every shard completes behind the client's back: only a
        # re-sync can tell the coordinators the cluster agrees on 0.
        for node in client.nodes:
            node.cache.complete_pending_checkpoints()
        assert all(
            node.coordinator._external_barrier is None for node in client.nodes
        )
        barrier(client)
        assert all(
            node.coordinator._external_barrier == 0 for node in client.nodes
        )


class TestCoordinatorClusterMode:
    @pytest.fixture
    def store(self):
        return KeyedStore(VersionedEntryStore(PmemPool(1 << 16), entry_bytes=8))

    def test_history_retained_until_external_confirms(self, store):
        coordinator = CheckpointCoordinator(store, cluster_mode=True)
        coordinator.request(0)
        coordinator.complete_head()
        coordinator.request(2)
        coordinator.complete_head()
        # Both completed checkpoints remain barriers (external unknown).
        store.put([1], 0, ROW)
        store.put([1], 2, ROW)
        store.put([1], 5, ROW)
        assert store.versions_of(1) == [0, 2, 5]
        # Cluster confirms 2 is globally complete: 0 may be recycled.
        coordinator.set_external_barrier(2)
        store.recycle()
        assert store.versions_of(1) == [2, 5]

    def test_released_checkpoint_is_reclaimed_by_the_next_request(self, store):
        """The external barrier releases checkpoint 0 but its versions
        stay readable (pinned serving reads) until the next checkpoint
        request reclaims them — before that checkpoint's flush, so the
        shard never holds three generations."""
        coordinator = CheckpointCoordinator(store, cluster_mode=True)
        coordinator.request(0)
        store.put([1], 0, ROW)
        coordinator.complete_head()
        coordinator.set_external_barrier(0)
        coordinator.request(2)
        store.put([1], 2, ROW)
        coordinator.complete_head()
        coordinator.set_external_barrier(2)
        assert store.versions_of(1) == [0, 2]
        coordinator.request(7)
        assert store.versions_of(1) == [2]

    def test_standalone_mode_keeps_only_last_completed(self, store):
        coordinator = CheckpointCoordinator(store, cluster_mode=False)
        coordinator.request(0)
        coordinator.complete_head()
        coordinator.request(2)
        coordinator.complete_head()
        store.put([1], 0, ROW)
        store.put([1], 2, ROW)
        store.put([1], 5, ROW)
        # Only the newest completed checkpoint (2) is protected.
        assert store.versions_of(1) == [2, 5]

    def test_history_survives_recovery_construction(self, store):
        store.set_checkpointed_batch_id(4)
        coordinator = CheckpointCoordinator(store, cluster_mode=True)
        store.put([1], 3, ROW)
        store.put([1], 7, ROW)
        # The durable checkpoint (4) seeds the history: version 3 stays.
        assert store.versions_of(1) == [3, 7]
