"""OpenEmbedding core: the PMem-aware parameter server.

This package implements the paper's primary contribution:

* :mod:`repro.core.cache` — the pipelined DRAM cache with co-designed
  batch-aware checkpointing (Algorithms 1 and 2);
* :mod:`repro.core.ps_node` — a single PS node: pull / push / update on
  top of the cache, PMem store and PS-side optimizer;
* :mod:`repro.core.server` — the distributed facade that hash-partitions
  keys over PS nodes;
* :mod:`repro.core.checkpoint` / :mod:`repro.core.recovery` — checkpoint
  scheduling and crash recovery.
"""

from repro.core.backend import ReadBackend, TrainBackend, aggregate_maintain, check_backend
from repro.core.cache import MaintainResult, PipelinedCache, PullResult
from repro.core.serving_backend import LookupResult, ReplicaSelector
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.entry import EntryColumns, EntryView, Location
from repro.core.failover import FailoverManager, NodeState
from repro.core.hash_index import HashIndex
from repro.core.optimizers import PSAdagrad, PSOptimizer, PSSGD
from repro.core.ps_node import PSNode
from repro.core.queues import AccessQueue, CheckpointRequestQueue
from repro.core.recovery import RecoveryReport, recover_node
from repro.core.replication import RebuildReport, ReplicatedPSNode
from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import HashPartitioner

__all__ = [
    "ReadBackend",
    "TrainBackend",
    "LookupResult",
    "ReplicaSelector",
    "aggregate_maintain",
    "check_backend",
    "EntryColumns",
    "EntryView",
    "Location",
    "HashIndex",
    "AccessQueue",
    "CheckpointRequestQueue",
    "PipelinedCache",
    "PullResult",
    "MaintainResult",
    "CheckpointCoordinator",
    "PSNode",
    "PSOptimizer",
    "PSSGD",
    "PSAdagrad",
    "OpenEmbeddingServer",
    "HashPartitioner",
    "RecoveryReport",
    "recover_node",
    "ReplicatedPSNode",
    "RebuildReport",
    "FailoverManager",
    "NodeState",
]
