"""Hierarchical serving tier: cache, staleness bound, replica fan-out.

Unit coverage for the online inference extension:

* the :class:`~repro.core.serving_backend.ServingBackend` protocol and
  its checker;
* :class:`~repro.core.serving_backend.ReplicaSelector` policies;
* :class:`~repro.dlrm.hps.HierarchicalPS` — hot-row cache hits,
  snapshot-window invalidation at every ``staleness_bound_k``, pinned
  reads bypassing the cache, frequency-gated admission;
* the role-split backend protocols (``ReadBackend`` / ``TrainBackend``);
* checkpoint-pinned model export and
  :meth:`~repro.dlrm.serving.InferenceSession.from_backend`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, ConfigError, ServerConfig
from repro.core.backend import ReadBackend, TrainBackend, check_backend
from repro.core.serving_backend import (
    LookupResult,
    ReplicaSelector,
    ServingBackend,
    check_serving_backend,
)
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.hps import HierarchicalPS
from repro.errors import CheckpointError, ServerError

DIM = 8


def make_server(num_nodes: int = 2, seed: int = 3) -> OpenEmbeddingServer:
    return OpenEmbeddingServer(
        ServerConfig(
            num_nodes=num_nodes,
            embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22,
            seed=seed,
        ),
        CacheConfig(capacity_bytes=1 << 18),
    )


def train_batch(server, keys, batch_id, scale=0.01):
    server.pull(keys, batch_id)
    server.maintain(batch_id)
    grads = np.full((len(keys), DIM), scale, dtype=np.float32)
    server.push(keys, grads, batch_id)


def trained_server(batches: int = 1, keys=range(16)) -> OpenEmbeddingServer:
    server = make_server()
    keys = list(keys)
    for batch in range(batches):
        train_batch(server, keys, batch)
    server.barrier_checkpoint()
    return server


# ----------------------------------------------------------------------
# protocols
# ----------------------------------------------------------------------


class TestServingProtocol:
    def test_server_is_serving_backend(self):
        server = make_server()
        assert isinstance(server, ServingBackend)
        assert check_serving_backend(server) is server

    def test_checker_names_missing_members(self):
        class NotServing:
            pass

        with pytest.raises(TypeError, match="lookup"):
            check_serving_backend(NotServing())

    def test_role_split(self):
        server = make_server()
        assert isinstance(server, ReadBackend)
        assert isinstance(server, TrainBackend)
        assert check_backend(server, role="read") is server
        assert check_backend(server, role="train") is server

    def test_read_only_object_fails_train_role(self):
        class ReadOnly:
            def pull(self, keys, batch_id): ...
            def lookup(self, keys, snapshot_id=None): ...
            num_entries = 0
            latest_completed_batch = -1
            latest_serving_snapshot = -1
            checkpoints_completed = 0

        check_backend(ReadOnly(), role="read")
        with pytest.raises(TypeError, match="push"):
            check_backend(ReadOnly(), role="train")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown backend role"):
            check_backend(make_server(), role="serve")


class TestReplicaSelector:
    def test_primary_policy_never_fans_out(self):
        selector = ReplicaSelector(policy="primary")
        assert [selector.pick(0, 2) for __ in range(4)] == [0, 0, 0, 0]

    def test_round_robin_alternates_per_node(self):
        selector = ReplicaSelector(policy="round_robin")
        assert [selector.pick(0, 2) for __ in range(4)] == [0, 1, 0, 1]
        # Each node keeps its own turn counter.
        assert selector.pick(1, 2) == 0

    def test_least_loaded_balances(self):
        selector = ReplicaSelector(policy="least_loaded")
        picks = [selector.pick(0, 2) for __ in range(6)]
        assert picks.count(0) == picks.count(1) == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="policy"):
            ReplicaSelector(policy="random")

    def test_config_validates_policy(self):
        with pytest.raises(ConfigError, match="serving_replica_policy"):
            ServerConfig(
                embedding_dim=8,
                pmem_capacity_bytes=1 << 22,
                serving_replica_policy="sometimes",
            )

    def test_unreplicated_shard_counts_one(self):
        server = make_server()
        assert ReplicaSelector.replica_count(server.nodes[0]) == 1


# ----------------------------------------------------------------------
# backend lookup semantics
# ----------------------------------------------------------------------


class TestBackendLookup:
    def test_lookup_requires_a_completed_checkpoint(self):
        server = make_server()
        train_batch(server, [1, 2], 0)
        with pytest.raises(CheckpointError, match="not a completed checkpoint"):
            server.lookup([1, 2])

    def test_future_pin_rejected(self):
        server = trained_server()
        with pytest.raises(CheckpointError):
            server.lookup([1], snapshot_id=99)

    def test_cold_key_serves_deterministic_init(self):
        server = trained_server()
        result = server.lookup([123456])
        assert result.cold == 1
        cfg = server.server_config
        rng = np.random.default_rng((cfg.seed, 123456))
        expected = rng.uniform(
            -cfg.initializer_scale, cfg.initializer_scale, DIM
        ).astype(np.float32)
        assert np.array_equal(result.weights[0], expected)

    def test_pinned_read_ignores_later_training(self):
        server = trained_server(keys=range(8))
        frozen = server.lookup(list(range(8)), 0)
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        still = server.lookup(list(range(8)), 0)
        assert np.array_equal(frozen.weights, still.weights)
        fresh = server.lookup(list(range(8)))
        assert fresh.snapshot_id == 1
        assert not np.array_equal(fresh.weights, frozen.weights)

    def test_metadata_only_rejected(self):
        server = OpenEmbeddingServer(
            ServerConfig(
                num_nodes=1,
                embedding_dim=DIM,
                pmem_capacity_bytes=1 << 22,
            ),
            CacheConfig(capacity_bytes=1 << 18),
            metadata_only=True,
        )
        train_batch_keys = [1]
        server.pull(train_batch_keys, 0)
        server.maintain(0)
        server.push(train_batch_keys, None, 0)
        server.barrier_checkpoint()
        with pytest.raises(ServerError, match="value-mode"):
            server.lookup(train_batch_keys)


# ----------------------------------------------------------------------
# the hierarchical tier
# ----------------------------------------------------------------------


class TestHierarchicalPS:
    def test_cache_hits_serve_identical_rows(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=32)
        first = tier.lookup([1, 2, 3])
        second = tier.lookup([1, 2, 3])
        assert np.array_equal(first.weights, second.weights)
        assert tier.stats.cache_hits == 3
        assert tier.stats.remote_rows == 3

    def test_capacity_zero_disables_caching(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=0)
        tier.lookup([1, 2])
        tier.lookup([1, 2])
        assert tier.stats.cache_hits == 0
        assert tier.stats.remote_rows == 4

    def test_lru_eviction_respects_capacity(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=2)
        tier.lookup([1, 2, 3])
        assert tier.cached_rows == 2

    def test_k0_forces_current_rows(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32, staleness_bound_k=0)
        stale = tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        fresh = tier.lookup([1])
        assert stale.row_snapshots[0] == 0
        assert fresh.row_snapshots[0] == 1
        assert not np.array_equal(stale.weights, fresh.weights)
        assert tier.stats.invalidated == 1

    def test_k1_serves_one_checkpoint_behind(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32, staleness_bound_k=1)
        old = tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        lagging = tier.lookup([1])
        # Within the bound: the cached row (pinned at checkpoint 0) may
        # still serve while the newest checkpoint is 1.
        assert lagging.row_snapshots[0] == 0
        assert np.array_equal(old.weights, lagging.weights)
        # One more advance pushes it past the bound.
        train_batch(server, list(range(8)), 2, scale=0.5)
        server.barrier_checkpoint()
        current = tier.lookup([1])
        assert current.row_snapshots[0] == 2

    def test_explicit_pin_bypasses_cache(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32)
        tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        pinned = tier.lookup([1], snapshot_id=0)
        assert pinned.snapshot_id == 0
        assert tier.stats.rows == 1  # the pinned read is not counted as cached traffic

    def test_freq_admission_waits_for_second_touch(self):
        tier = HierarchicalPS(
            trained_server(), capacity_rows=32, freq_admission=True
        )
        tier.lookup([7])
        assert tier.cached_rows == 0
        tier.lookup([7])
        assert tier.cached_rows == 1

    def test_invalidate_drops_everything(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=32)
        tier.lookup([1, 2, 3])
        assert tier.invalidate() == 3
        assert tier.cached_rows == 0

    def test_rejects_train_only_backend(self):
        class TrainOnly:
            def pull(self, keys, batch_id): ...

        with pytest.raises(TypeError, match="lookup"):
            HierarchicalPS(TrainOnly())

    def test_registry_counters_published(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        tier = HierarchicalPS(
            trained_server(), capacity_rows=32, registry=registry
        )
        tier.lookup([1, 2])
        tier.lookup([1, 2])
        assert registry.counter("repro_serving_requests_total").value == 2
        assert registry.counter("repro_serving_cache_hits_total").value == 2

    def test_bundle_hoists_serving_counters(self):
        from repro.obs.registry import MetricsRegistry, collect_bundle

        server = trained_server()
        server.lookup([1, 2, 3])
        registry = MetricsRegistry()
        for i, node in enumerate(server.nodes):
            collect_bundle(registry, node.metrics, {"node": str(i)})
        total = sum(
            metric.value
            for name, __, metric in registry.items()
            if name == "repro_serving_rows_total"
        )
        assert total == 3


# ----------------------------------------------------------------------
# checkpoint-pinned export / serving sessions
# ----------------------------------------------------------------------


class TestPinnedExport:
    def test_from_backend_serves_pinned_rows(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        server = trained_server(keys=range(12))
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        session = InferenceSession.from_backend(server, model)
        assert session.snapshot_id == 0
        assert session.num_entries == 12
        live = server.lookup([3])
        key_matrix = np.array([[3, 3, 3, 3]])
        assert np.array_equal(session.lookup(key_matrix)[0, 0], live.weights[0])

    def test_from_backend_requires_checkpoint(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        server = make_server()
        train_batch(server, [1, 2], 0)  # trained but never checkpointed
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        with pytest.raises(ServerError, match="checkpoint"):
            InferenceSession.from_backend(server, model)

    def test_from_backend_rejects_empty(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        with pytest.raises(ServerError, match="no embedding entries"):
            InferenceSession.from_backend(make_server(), model)

    def test_export_is_checkpoint_pinned(self, tmp_path):
        """Exporting mid-training captures a barrier, not a torn mix."""
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession, export_model

        server = trained_server(keys=range(8))
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        session = InferenceSession(
            path, DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        )
        pinned = server.lookup(list(range(8)), server.latest_serving_snapshot)
        key_matrix = np.array([list(range(4)), list(range(4, 8))])
        assert np.array_equal(
            session.lookup(key_matrix).reshape(8, DIM), pinned.weights
        )
