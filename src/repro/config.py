"""Configuration objects for every subsystem.

All configs are frozen dataclasses: construct once, validate eagerly in
``__post_init__``, and pass around freely. Sizes are in bytes and times
in (simulated) seconds unless a field name says otherwise.

Every field is read by the code it configures. A value that no CLI
command, benchmark or workload varies is a constant where it is used
instead: the retry backoff doubles per attempt, a shard is suspect after
half its lease (:mod:`repro.core.failover`), and a node remembers the
last :data:`DEFAULT_DEDUP_WINDOW` requests of a kind.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError

FLOAT_BYTES = 4
"""Embedding weights are float32, as in the paper (vectors of floats)."""

DEFAULT_DEDUP_WINDOW = 1024
"""Request identities a node remembers per kind: a replayed push older
than this many pushes is no longer absorbed, by a node's RPC service or
by its aggregation buffer."""


class CheckpointMode(enum.Enum):
    """Checkpoint strategies evaluated in the paper (Table IV)."""

    NONE = "none"
    #: The paper's batch-aware checkpoint co-designed with cache replacement.
    BATCH_AWARE = "batch_aware"
    #: CheckFreq-style incremental checkpoint (state of the art baseline).
    INCREMENTAL = "incremental"
    #: Batch-aware for sparse features only, dense checkpoint disabled.
    SPARSE_ONLY = "sparse_only"


class EvictionPolicy(enum.Enum):
    """Cache replacement policies. The paper uses LRU throughout;
    FIFO and CLOCK (second chance) are ablation alternatives."""

    LRU = "lru"
    FIFO = "fifo"
    CLOCK = "clock"


@dataclass(frozen=True)
class CacheConfig:
    """DRAM cache in front of PMem (Section V-A/V-B).

    Attributes:
        capacity_bytes: DRAM budget for cached embedding entries. The
            paper sweeps 10 MB .. 20 GB (Figure 8); 2 GB is the default
            operating point.
        pipelined: when True, LRU maintenance / replacement / PMem flush
            costs are charged overlapped with GPU compute (the paper's
            pipeline); when False they sit on the request critical path.
        maintainer_threads: number of dedicated cache-maintainer threads
            consuming the access queue (Figure 5).
        track_dirty: skip the PMem write when evicting a clean entry.
            The paper always writes back; dirty tracking is an ablation.
        policy: replacement policy, LRU in all paper experiments.
        admission_threshold: TinyLFU-style admission filter (extension
            beyond the paper): a missed key is only promoted to DRAM
            after being seen this many times. 0 (the paper's behaviour)
            admits every miss.

    DRAM-resident payloads always live in the cache's contiguous float32
    arena (``repro.core.arena``); pull and update each run one batched
    path over it.
    """

    capacity_bytes: int = 2 << 30
    pipelined: bool = True
    maintainer_threads: int = 4
    track_dirty: bool = False
    policy: EvictionPolicy = EvictionPolicy.LRU
    admission_threshold: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"cache capacity must be positive, got {self.capacity_bytes}")
        if self.maintainer_threads <= 0:
            raise ConfigError("maintainer_threads must be >= 1")
        if self.admission_threshold < 0:
            raise ConfigError("admission_threshold must be non-negative")

    def capacity_entries(self, entry_bytes: int) -> int:
        """How many entries of ``entry_bytes`` fit in the cache (>= 1)."""
        if entry_bytes <= 0:
            raise ConfigError(f"entry_bytes must be positive, got {entry_bytes}")
        return max(1, self.capacity_bytes // entry_bytes)


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint scheduling (Section VI-D).

    Attributes:
        mode: strategy from Table IV.
        interval_seconds: period of the automatic checkpoint thread. The
            paper's default is 20 minutes, chosen via Young's formula
            from Facebook's reported MTTF.
        include_dense: whether the dense (MLP) part is checkpointed via
            the framework's own mechanism ('Sparse Only' disables it).
    """

    mode: CheckpointMode = CheckpointMode.BATCH_AWARE
    interval_seconds: float = 20 * 60.0
    include_dense: bool = True

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ConfigError("checkpoint interval must be positive")

    @classmethod
    def none(cls) -> "CheckpointConfig":
        return cls(mode=CheckpointMode.NONE, include_dense=False)

    @classmethod
    def sparse_only(cls, interval_seconds: float = 20 * 60.0) -> "CheckpointConfig":
        return cls(
            mode=CheckpointMode.SPARSE_ONLY,
            interval_seconds=interval_seconds,
            include_dense=False,
        )


@dataclass(frozen=True)
class ServerConfig:
    """A distributed OpenEmbedding deployment.

    Attributes:
        num_nodes: number of PS shards; keys are placed by jump
            consistent hash over their ``mix64``
            (:class:`~repro.core.sharding.HashPartitioner`), so a
            cluster can scale out or in live (``repro.core.migration``).
        embedding_dim: floats per embedding entry (paper default 64).
        pmem_capacity_bytes: persistent pool size per node.
        initializer_scale: uniform(-s, s) initialisation for new entries
            (finite, >= 0; 0 starts every weight at +0.0).
        seed: seed of the key-seeded initializer, >= 0: a new key's
            weights are a function of ``(seed, key)`` on every node
            (:func:`repro.core.initializer.key_seeded_rows`).
        replicas: replicas per shard. ``1`` is the paper's
            checkpoint-recovery-only deployment; ``2`` runs a hot
            backup (:class:`~repro.core.replication.ReplicatedPSNode`)
            that failure detection can promote in
            :data:`~repro.core.replication.FAILOVER_SECONDS` instead of
            the ~380 s PMem rescan (Section V-C). Serving reads of a
            replicated shard alternate primary / backup
            (:class:`~repro.core.serving_backend.ReplicaSelector`).
        lease_s: failure-detection lease duration. A shard whose
            heartbeats stop is declared dead only once its lease
            expires, which bounds both false positives and the
            detection half of the unavailability window.
        staleness_bound: bounded-staleness admission ``k`` for
            asynchronous training: a pull whose reported worker
            progress is more than ``k`` batches behind the slowest
            *other* admitted worker is rejected with
            :class:`~repro.errors.StalenessError`. ``None`` (default)
            disables admission; anonymous pulls (no ``worker_id``)
            always bypass it, so synchronous training and serving are
            unaffected.
        aggregator: gradient fold applied before ``apply_batch`` —
            ``"none"`` (apply pushes directly, the synchronous-path
            default), ``"mean"``, ``"trimmed_mean"``, ``"median"`` or
            ``"krum"`` (see :mod:`repro.core.aggregators`). Anything
            but ``"none"`` buffers pushes per worker and folds them
            quorum-by-quorum.
        aggregator_workers: expected worker count ``n`` for the
            aggregation quorum (required when ``aggregator != "none"``).
        aggregator_f: Byzantine tolerance ``f`` the robust folds are
            sized for; defaults to ``max(0, (n - 2) // 3)`` — the
            largest ``f`` with an honest majority at ``n >= 3f + 2``.
    """

    num_nodes: int = 1
    embedding_dim: int = 64
    pmem_capacity_bytes: int = 756 << 30
    initializer_scale: float = 0.01
    seed: int = 0
    replicas: int = 1
    lease_s: float = 0.5
    staleness_bound: int | None = None
    aggregator: str = "none"
    aggregator_workers: int = 0
    aggregator_f: int | None = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be >= 1")
        if self.embedding_dim <= 0:
            raise ConfigError("embedding_dim must be >= 1")
        if self.pmem_capacity_bytes <= 0:
            raise ConfigError("pmem_capacity_bytes must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # 2 * scale is the width of the uniform range: it must be finite too.
        if not (self.initializer_scale >= 0 and math.isfinite(2.0 * self.initializer_scale)):
            raise ConfigError(
                f"initializer_scale must be finite and >= 0, got {self.initializer_scale}"
            )
        if self.replicas not in (1, 2):
            raise ConfigError(
                f"replicas must be 1 (none) or 2 (hot backup), got {self.replicas}"
            )
        if self.lease_s <= 0:
            raise ConfigError("lease_s must be positive")
        if self.staleness_bound is not None and self.staleness_bound < 0:
            raise ConfigError(
                f"staleness_bound must be >= 0 or None, got {self.staleness_bound}"
            )
        # Kept in sync with repro.core.aggregators.AGGREGATOR_NAMES
        # (not imported here: config must stay import-cycle free).
        if self.aggregator not in ("none", "mean", "trimmed_mean", "median", "krum"):
            raise ConfigError(
                "aggregator must be one of 'none', 'mean', 'trimmed_mean', "
                f"'median', 'krum'; got {self.aggregator!r}"
            )
        if self.aggregator != "none" and self.aggregator_workers < 1:
            raise ConfigError(
                f"aggregator {self.aggregator!r} needs aggregator_workers >= 1"
            )
        if self.aggregator_f is not None and (
            self.aggregator_f < 0
            or (
                self.aggregator != "none"
                and self.aggregator_f >= max(1, self.aggregator_workers)
            )
        ):
            raise ConfigError(
                f"aggregator_f={self.aggregator_f} must be in "
                f"[0, aggregator_workers)"
            )

    @property
    def entry_bytes(self) -> int:
        """Size of one embedding entry's weights in bytes."""
        return self.embedding_dim * FLOAT_BYTES


@dataclass(frozen=True)
class NetworkConfig:
    """Cluster interconnect (the paper: 30 Gb intranet, RDMA-style RPC).

    Attributes:
        bandwidth_bytes_per_s: link bandwidth shared by all workers.
        rpc_latency_s: one-way per-message latency.
    """

    bandwidth_bytes_per_s: float = 30e9 / 8
    rpc_latency_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.rpc_latency_s < 0:
            raise ConfigError("rpc latency must be non-negative")


@dataclass(frozen=True)
class RetryConfig:
    """Client-side RPC retry policy (exponential backoff with jitter).

    Every :class:`~repro.network.rpc.RpcChannel` call gets a total
    simulated-time budget (``call_timeout_s``); each attempt waits at
    most ``attempt_timeout_s`` for a response before declaring the
    message lost and backing off. All waiting — wire time, loss
    timeouts and backoff — is charged to the shared
    :class:`~repro.simulation.clock.SimClock`, so retries are visible
    in every simulated-time measurement.

    Attributes:
        max_attempts: total tries per call (first attempt included).
        attempt_timeout_s: patience per attempt before a retry.
        call_timeout_s: total per-call budget; exhausting it raises
            :class:`~repro.errors.RpcTimeoutError`.
        base_backoff_s: backoff before the second attempt; each later
            retry doubles it.
        max_backoff_s: backoff ceiling.
        jitter: symmetric +/- fraction randomizing each backoff
            (0 disables jitter; draws come from a seeded per-channel
            RNG so retry traces are deterministic).
        seed: base RNG seed for jitter; channel ``i`` derives
            ``(seed, i)``.
    """

    max_attempts: int = 6
    attempt_timeout_s: float = 0.05
    call_timeout_s: float = 2.0
    base_backoff_s: float = 1e-3
    max_backoff_s: float = 0.1
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.attempt_timeout_s <= 0:
            raise ConfigError("attempt_timeout_s must be positive")
        if self.call_timeout_s < self.attempt_timeout_s:
            raise ConfigError("call_timeout_s must be >= attempt_timeout_s")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ConfigError("need 0 <= base_backoff_s <= max_backoff_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")


@dataclass(frozen=True)
class NetworkFaultConfig:
    """Seeded fault injection on the simulated link.

    Extends the crash-only failure model of :mod:`repro.failure` to the
    network: a :class:`~repro.failure.network_faults.FaultyLink` wraps
    the :class:`~repro.simulation.network.NetworkModel` and flips a
    seeded coin per message per fault class. All rates are independent
    probabilities in ``[0, 1]``.

    Attributes:
        drop_rate: message silently lost (receiver sees nothing).
        duplicate_rate: message delivered twice.
        corrupt_rate: one byte of the frame is flipped in flight; the
            frame checksum makes this always detectable, so corruption
            degrades to a retryable error, never silent damage.
        delay_rate: probability of an extra in-flight delay.
        delay_mean_s: mean of the exponential extra delay.
        seed: RNG seed; the whole fault schedule is a deterministic
            function of it.

    Faults hit both directions: worker -> PS requests and PS -> worker
    responses.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_mean_s: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_mean_s < 0:
            raise ConfigError("delay_mean_s must be non-negative")

    @property
    def any_faults(self) -> bool:
        """True when at least one fault class can fire."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.corrupt_rate > 0
            or self.delay_rate > 0
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Training cluster shape (Section VI-A hardware setup).

    Attributes:
        num_workers: total GPU workers (the paper scales 4 -> 16, four
            V100s per machine).
        batch_size: per-worker training batch size (paper default 4096).
        gpu_batch_time_s: simulated GPU forward+backward time for one
            batch of the dense model. Calibrated in
            ``repro.simulation.calibration``.
        ps_threads_per_node: request-handler threads on each PS node.
        network: interconnect model.
    """

    num_workers: int = 4
    batch_size: int = 4096
    gpu_batch_time_s: float = 0.040
    ps_threads_per_node: int = 16
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigError("num_workers must be >= 1")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be >= 1")
        if self.gpu_batch_time_s < 0:
            raise ConfigError("gpu_batch_time_s must be non-negative")
        if self.ps_threads_per_node <= 0:
            raise ConfigError("ps_threads_per_node must be >= 1")


@dataclass(frozen=True)
class PrefetchConfig:
    """Lookahead prefetch pipeline (Section V-B, Figure 5; BagPipe-style).

    The trainer peeks up to ``lookahead`` future batches from the
    workload stream, deduplicates their keys against what is already
    buffered, and issues coalesced prefetch pulls whose simulated
    latency overlaps with GPU compute of the current batch. Cache
    maintenance (``maintain``) is deferred into the same overlap
    window, exactly as Algorithm 1 / Figure 5 prescribe.

    Correctness: the pipeline guarantees bit-identical weights versus
    serial execution. A buffered entry whose key is touched by an
    in-flight push is invalidated and re-pulled ("patched") at the end
    of the step, before any later batch consumes it — the staleness
    invariant. The buffer holds at most the window: the distinct keys
    of the next ``lookahead`` batches.

    Attributes:
        lookahead: how many future batches to peek. ``0`` is no
            pipeline: the trainers and the simulator keep the serial
            protocol.
    """

    lookahead: int = 0

    def __post_init__(self) -> None:
        if self.lookahead < 0:
            raise ConfigError(f"lookahead must be >= 0, got {self.lookahead}")

    @property
    def enabled(self) -> bool:
        """True when the pipeline actually looks ahead."""
        return self.lookahead > 0


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic DLRM access workload (Section III).

    The real trace has 2.1 B embedding entries with exponential-decay
    access skew (Figure 10); we scale the key count down and keep the
    skew. ``features_per_sample`` is the number of embedding lookups one
    training sample performs.

    Attributes:
        num_keys: distinct embedding ids in the model.
        features_per_sample: sparse-feature lookups per sample.
        skew: exponential-decay rate of the access distribution; larger
            means more skewed. ``1.0`` matches the paper's original
            workload; Figure 11 uses more/less skewed variants.
        seed: RNG seed for reproducible traces.
    """

    num_keys: int = 1_000_000
    features_per_sample: int = 26
    skew: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ConfigError("num_keys must be >= 1")
        if self.features_per_sample <= 0:
            raise ConfigError("features_per_sample must be >= 1")
        if self.skew <= 0:
            raise ConfigError("skew must be positive")
