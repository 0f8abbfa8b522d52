"""Distributed server facade: routing, gathering, cluster checkpoints."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.errors import CheckpointError, RecoveryError
from tests.harness.scenario import build_backend


def make_server(num_nodes=3, dim=4, capacity_entries=8, seed=0):
    server_config = ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=dim,
        pmem_capacity_bytes=1 << 22,
        seed=seed,
    )
    cache_config = CacheConfig(capacity_bytes=capacity_entries * dim * 4)
    return OpenEmbeddingServer(server_config, cache_config), server_config, cache_config


def grads(n, dim=4, value=1.0):
    return np.full((n, dim), value, dtype=np.float32)


class TestRouting:
    def test_pull_preserves_request_order(self):
        server, *_ = make_server()
        keys = [10, 3, 25, 7, 10]
        result = server.pull(keys, 0)
        solo, *_ = make_server(num_nodes=1)
        expected = solo.pull(keys, 0)
        assert np.array_equal(result.weights, expected.weights)

    def test_sharding_distributes_keys(self):
        server, *_ = make_server(num_nodes=3)
        server.pull(list(range(100)), 0)
        per_node = [node.num_entries for node in server.nodes]
        assert sum(per_node) == 100
        assert all(count > 0 for count in per_node)

    def test_push_routes_to_owner(self):
        server, *_ = make_server()
        keys = list(range(20))
        server.pull(keys, 0)
        server.maintain(0)
        assert server.push(keys, grads(20), 0) == 20
        for key in keys:
            assert np.allclose(server.read_weights(key), server.nodes[
                server.partitioner.node_of(key)
            ].read_weights(key))

    def test_sharded_matches_single_node_training(self):
        """Sharding is semantics-free: same weights either way."""
        sharded, *_ = make_server(num_nodes=3, seed=5)
        single, *_ = make_server(num_nodes=1, seed=5)
        keys = [1, 2, 3, 4, 5, 6]
        for batch in range(4):
            for server in (sharded, single):
                server.pull(keys, batch)
                server.maintain(batch)
                server.push(keys, grads(len(keys), value=0.1 * (batch + 1)), batch)
        for key in keys:
            assert np.allclose(sharded.read_weights(key), single.read_weights(key))


class TestClusterCheckpoint:
    def _train(self, server, keys, batch):
        server.pull(keys, batch)
        server.maintain(batch)
        server.push(keys, grads(len(keys)), batch)

    def test_barrier_checkpoint_all_nodes(self):
        server, *_ = make_server()
        self._train(server, list(range(12)), 0)
        server.barrier_checkpoint()
        assert server.global_completed_checkpoint == 0
        for node in server.nodes:
            assert node.coordinator.last_completed == 0

    def test_checkpoint_without_training_rejected(self):
        server, *_ = make_server()
        with pytest.raises(CheckpointError):
            server.request_checkpoint()

    def test_global_checkpoint_is_minimum(self):
        server, *_ = make_server(num_nodes=2)
        self._train(server, list(range(8)), 0)
        server.barrier_checkpoint()
        # One node completes a later checkpoint on its own.
        self._train(server, list(range(8)), 1)
        server.nodes[0].coordinator.request(1)
        server.nodes[0].cache.complete_pending_checkpoints()
        assert server.global_completed_checkpoint == 0


class TestClusterRecovery:
    def _train(self, server, keys, batch):
        server.pull(keys, batch)
        server.maintain(batch)
        server.push(keys, grads(len(keys)), batch)

    def test_recover_to_global_checkpoint(self):
        server, server_config, cache_config = make_server()
        keys = list(range(20))
        for batch in range(3):
            self._train(server, keys, batch)
        server.barrier_checkpoint()
        snapshot = server.state_snapshot()
        for batch in range(3, 6):
            self._train(server, keys, batch)
        pools = server.crash()
        recovered, reports = OpenEmbeddingServer.recover(
            pools, server_config, cache_config
        )
        assert recovered.global_completed_checkpoint == 2
        assert len(reports) == 3
        restored = recovered.state_snapshot()
        assert set(restored) == set(snapshot)
        for key, weights in snapshot.items():
            assert np.array_equal(restored[key], weights)

    def test_recover_with_straggler_node(self):
        """A node that completed a later checkpoint still recovers to
        the cluster-wide minimum, thanks to the external barrier."""
        server, server_config, cache_config = make_server(num_nodes=2)
        keys = list(range(16))
        self._train(server, keys, 0)
        server.barrier_checkpoint()
        snapshot = server.state_snapshot()
        self._train(server, keys, 1)
        # Node 0 races ahead with its own checkpoint of batch 1.
        server.nodes[0].coordinator.request(1)
        server.nodes[0].cache.complete_pending_checkpoints()
        self._train(server, keys, 2)
        pools = server.crash()
        recovered, __ = OpenEmbeddingServer.recover(pools, server_config, cache_config)
        assert recovered.global_completed_checkpoint == 0
        restored = recovered.state_snapshot()
        for key, weights in snapshot.items():
            assert np.array_equal(restored[key], weights)

    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_a_barrier_makes_durable_the_rows_no_round_listed(self, transport):
        """A pull creates its rows dirty and unlisted; a push with no
        maintenance round between them leaves them so. The barrier must
        flush them all the same: the checkpoint it reports complete is
        one recovery restores every key of."""
        server_config = ServerConfig(num_nodes=2, embedding_dim=8)
        cache_config = CacheConfig(capacity_bytes=3072)
        optimizer = PSAdagrad(lr=0.05)
        backend = build_backend(transport, server_config, cache_config, optimizer)
        keys = list(range(300))
        backend.pull(keys, 0)
        backend.push(keys, grads(len(keys), dim=8), 0)
        assert backend.barrier_checkpoint() == 0
        snapshot = backend.state_snapshot()
        recovered, __ = OpenEmbeddingServer.recover(
            backend.crash(), server_config, cache_config, optimizer
        )
        restored = recovered.state_snapshot()
        assert len(restored) == len(snapshot) == len(keys)
        for key, weights in snapshot.items():
            assert np.array_equal(restored[key], weights)

    def test_recover_pool_count_mismatch(self):
        server, server_config, cache_config = make_server()
        pools = server.crash()
        with pytest.raises(RecoveryError):
            OpenEmbeddingServer.recover(pools[:2], server_config, cache_config)

    def test_recover_without_any_checkpoint(self):
        server, server_config, cache_config = make_server()
        self._train(server, list(range(8)), 0)
        pools = server.crash()
        with pytest.raises(RecoveryError):
            OpenEmbeddingServer.recover(pools, server_config, cache_config)

    def test_training_resumes_after_recovery(self):
        server, server_config, cache_config = make_server()
        keys = list(range(10))
        self._train(server, keys, 0)
        server.barrier_checkpoint()
        pools = server.crash()
        recovered, __ = OpenEmbeddingServer.recover(pools, server_config, cache_config)
        self._train(recovered, keys, 1)
        assert recovered.latest_completed_batch == 1


class TestAggregates:
    def test_miss_rate_aggregation(self):
        server, *_ = make_server(num_nodes=2, capacity_entries=2)
        keys = list(range(30))
        for batch in range(3):
            server.pull(keys, batch)
            server.maintain(batch)
        assert 0.0 < server.aggregate_miss_rate() <= 1.0

    def test_num_entries_across_shards(self):
        server, *_ = make_server()
        server.pull(list(range(50)), 0)
        assert server.num_entries == 50
