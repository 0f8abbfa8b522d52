"""OpenEmbedding reproduction.

A distributed parameter server for deep learning recommendation models
(DLRM) using (simulated) persistent memory, reproducing Chen et al.,
*OpenEmbedding*, ICDE 2023.

Quickstart::

    from repro import OpenEmbeddingServer, ServerConfig, CacheConfig

    server = OpenEmbeddingServer(
        ServerConfig(num_nodes=2, embedding_dim=16),
        CacheConfig(capacity_bytes=1 << 20),
    )
    result = server.pull([1, 2, 3], batch_id=0)   # lazily initialised
    server.maintain(batch_id=0)                   # pipelined cache round
    server.push([1, 2, 3], grads, batch_id=0)     # PS-side optimizer
    server.barrier_checkpoint()                   # durable snapshot

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables/figures.
"""

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CheckpointMode,
    ClusterConfig,
    EvictionPolicy,
    NetworkConfig,
    PrefetchConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.core import (
    CheckpointCoordinator,
    HashPartitioner,
    LookupResult,
    OpenEmbeddingServer,
    PipelinedCache,
    PSAdagrad,
    PSNode,
    PSOptimizer,
    PSSGD,
    ReadBackend,
    RecoveryReport,
    ReplicaSelector,
    TrainBackend,
    aggregate_maintain,
    check_backend,
    recover_node,
)
from repro.errors import (
    CheckpointError,
    ConfigError,
    KeyNotFoundError,
    PMemError,
    RecoveryError,
    ReproError,
    ServerError,
)
from repro.pmem import PmemPool, VersionedEntryStore

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CheckpointConfig",
    "CheckpointMode",
    "ClusterConfig",
    "EvictionPolicy",
    "NetworkConfig",
    "PrefetchConfig",
    "ServerConfig",
    "WorkloadConfig",
    "ReadBackend",
    "TrainBackend",
    "LookupResult",
    "ReplicaSelector",
    "aggregate_maintain",
    "check_backend",
    "OpenEmbeddingServer",
    "PSNode",
    "PipelinedCache",
    "CheckpointCoordinator",
    "HashPartitioner",
    "PSOptimizer",
    "PSSGD",
    "PSAdagrad",
    "RecoveryReport",
    "recover_node",
    "PmemPool",
    "VersionedEntryStore",
    "ReproError",
    "ConfigError",
    "PMemError",
    "ServerError",
    "KeyNotFoundError",
    "CheckpointError",
    "RecoveryError",
]
