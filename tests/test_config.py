"""Config validation and derived quantities."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CheckpointMode,
    ClusterConfig,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_capacity_entries(self):
        config = CacheConfig(capacity_bytes=1024)
        assert config.capacity_entries(256) == 4

    def test_capacity_entries_at_least_one(self):
        config = CacheConfig(capacity_bytes=10)
        assert config.capacity_entries(256) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=0)

    def test_invalid_entry_bytes(self):
        with pytest.raises(ConfigError):
            CacheConfig().capacity_entries(0)

    def test_invalid_threads(self):
        with pytest.raises(ConfigError):
            CacheConfig(maintainer_threads=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CacheConfig().capacity_bytes = 1

    def test_payload_storage_is_not_an_option(self):
        """The arena is the only payload store: six fields, no shim."""
        assert [f.name for f in dataclasses.fields(CacheConfig)] == [
            "capacity_bytes",
            "pipelined",
            "maintainer_threads",
            "track_dirty",
            "policy",
            "admission_threshold",
        ]
        with pytest.raises(TypeError):
            CacheConfig(arena=False)


class TestCheckpointConfig:
    def test_defaults(self):
        config = CheckpointConfig()
        assert config.mode == CheckpointMode.BATCH_AWARE
        assert config.interval_seconds == 1200.0

    def test_none_factory(self):
        config = CheckpointConfig.none()
        assert config.mode == CheckpointMode.NONE
        assert not config.include_dense

    def test_sparse_only_factory(self):
        config = CheckpointConfig.sparse_only(600.0)
        assert config.mode == CheckpointMode.SPARSE_ONLY
        assert not config.include_dense

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            CheckpointConfig(interval_seconds=0)


class TestServerConfig:
    def test_entry_bytes(self):
        assert ServerConfig(embedding_dim=64).entry_bytes == 256

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServerConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            ServerConfig(embedding_dim=0)
        with pytest.raises(ConfigError):
            ServerConfig(pmem_capacity_bytes=0)

    def test_a_short_lease_constructs(self):
        assert ServerConfig(replicas=2, lease_s=0.05).lease_s == 0.05
        with pytest.raises(ConfigError):
            ServerConfig(lease_s=0.0)


class TestClusterAndNetwork:
    def test_cluster_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ConfigError):
            ClusterConfig(batch_size=0)
        with pytest.raises(ConfigError):
            ClusterConfig(gpu_batch_time_s=-1)

    def test_network_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(ConfigError):
            NetworkConfig(rpc_latency_s=-1)

    def test_default_network_is_30gbit(self):
        assert NetworkConfig().bandwidth_bytes_per_s == pytest.approx(30e9 / 8)


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(num_keys=0)
        with pytest.raises(ConfigError):
            WorkloadConfig(features_per_sample=0)
        with pytest.raises(ConfigError):
            WorkloadConfig(skew=0)


class TestBenchProfile:
    def test_cache_scaling(self):
        from repro.simulation.profiles import DEFAULT_PROFILE

        scaled = DEFAULT_PROFILE.cache_bytes_for_paper_mb(2048)
        fraction = scaled / DEFAULT_PROFILE.model_bytes
        assert fraction == pytest.approx(2048 / (500 * 1024), rel=0.01)

    def test_iterations_divide_by_workers(self):
        from repro.simulation.profiles import DEFAULT_PROFILE

        assert DEFAULT_PROFILE.iterations(4) == 2 * DEFAULT_PROFILE.iterations(8)

    def test_config_factories(self):
        from repro.simulation.profiles import DEFAULT_PROFILE

        server = DEFAULT_PROFILE.server_config(num_nodes=2)
        assert server.num_nodes == 2
        cluster = DEFAULT_PROFILE.cluster_config(8)
        assert cluster.num_workers == 8
        assert cluster.network is DEFAULT_PROFILE.network
