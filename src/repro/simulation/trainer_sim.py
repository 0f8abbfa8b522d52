"""Synchronous DLRM training simulation (the evaluation's engine).

A :class:`TrainingSimulator` couples

* a **functional backend** — for the cache-based systems the real
  cluster, an :class:`~repro.core.server.OpenEmbeddingServer` of
  ``num_nodes`` shards splitting the configured DRAM cache between
  them, over rows that are all zero (a zero-scale initializer, zero
  gradients: no count depends on the bytes) — producing each shard's
  exact hit/miss/flush/eviction stream for the configured workload, and
* the **cost model** (:class:`repro.simulation.cluster.PSCostModel`) —
  which prices each phase of every iteration in simulated seconds, at
  its slowest shard,

plus checkpoint scheduling on the simulated clock. Epoch times,
overhead percentages and miss rates for Figures 3 and 6-13 all come out
of this class.

Scaling note: benchmarks run a scaled-down model (fewer keys, smaller
batches) with the paper's skew preserved; checkpoint intervals are
specified as a fraction of the measured epoch so that "a checkpoint
every 20 minutes of a 5-hour epoch" keeps its meaning at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CheckpointMode,
    ClusterConfig,
    PrefetchConfig,
    ServerConfig,
)
from repro.core.backend import aggregate_maintain
from repro.core.server import OpenEmbeddingServer
from repro.baselines.dram_ps import DRAMPSNode
from repro.baselines.pmem_hash import PMemHashNode
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry, collect_bundle
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION
from repro.simulation.clock import PeriodicTimer, SimClock
from repro.simulation.cluster import IterationCounts, PSCostModel, SystemKind
from repro.simulation.device import PMEM_SPEC
from repro.simulation.metrics import Metrics, PrefetchStats
from repro.workload.generator import WorkloadGenerator

MTTF_SEED = 0
"""Seed of the Poisson kill schedule an ``mttf_s`` run samples."""

_CLUSTER_SYSTEMS = (SystemKind.PMEM_OE, SystemKind.ORI_CACHE)
"""The cache-based systems, simulated on a real sharded cluster."""


@dataclass
class TrainingRunResult:
    """Outcome of one simulated training run."""

    system: SystemKind
    num_workers: int
    iterations: int
    sim_seconds: float
    #: per-phase totals over the whole run
    net_seconds: float = 0.0
    pull_service_seconds: float = 0.0
    gpu_seconds: float = 0.0
    maintain_inline_seconds: float = 0.0
    maintain_deferred_seconds: float = 0.0
    push_service_seconds: float = 0.0
    checkpoint_pause_seconds: float = 0.0
    checkpoints_completed: int = 0
    #: live-reshard pause(s) and volume (``--reshard-at`` runs)
    migration_pause_seconds: float = 0.0
    migration_keys_moved: int = 0
    migration_keys_total: int = 0
    migration_versions_moved: int = 0
    #: cache rows the reshard's barrier and exports flushed to PMem
    migration_flushed_entries: int = 0
    migrations_completed: int = 0
    miss_rate: float = 0.0
    total_requests: int = 0
    #: lookahead pulls issued inside the overlap window
    prefetch_requests: int = 0
    #: simulated seconds of prefetch work priced into the overlap slot
    prefetch_overlapped_seconds: float = 0.0
    #: MTTF-driven node kills that fired during the run
    failures_injected: int = 0
    #: kills answered by hot failover (``replicas=2``)
    failovers_completed: int = 0
    #: client-visible outage time across all failovers (lease + switch)
    failover_pause_seconds: float = 0.0
    #: background re-replication work (overlapped, not a pause)
    rereplication_seconds: float = 0.0
    #: kills answered by checkpoint recovery (``replicas=1``)
    recovery_pause_seconds: float = 0.0

    @property
    def seconds_per_iteration(self) -> float:
        return self.sim_seconds / self.iterations if self.iterations else 0.0


class TrainingSimulator:
    """Simulates synchronous data-parallel DLRM training on one system.

    The cache-based systems (PMem-OE, Ori-Cache) run on a real
    ``server.num_nodes``-shard cluster (:attr:`backend`): each shard is
    sent its slice of every global batch and holds ``1 / num_nodes`` of
    the DRAM cache, and a step is priced on its slowest shard. The
    baselines (DRAM-PS, TF-PS, PMem-Hash) run on one node; a baseline
    with ``num_nodes > 1`` or a reshard, and prefetch on more than one
    node, are refused (nothing splits their work per shard).

    Args:
        system: which Table III system to simulate.
        cluster: workers / batch size / GPU time / threads / network.
        server: embedding dim, PS node count.
        cache: DRAM cache config (hybrids only): the whole cluster's
            budget, split evenly over its shards.
        checkpoint: checkpoint mode and interval in *simulated seconds*
            (use :meth:`interval_for_epoch_fraction` to scale).
        workload: key-access generator.
        prefetch: lookahead prefetch over the pull path
            (PMem-OE with the pipelined cache only): demand pulls on
            the critical path shrink to buffer misses, the next
            ``lookahead`` batches' deduplicated keys are pulled inside
            the overlap slot, and pushed keys are invalidated/patched —
            by a real :class:`repro.dlrm.prefetch.PrefetchPipeline`
            (:attr:`pipeline`) over the functional backend, so the priced
            op streams are the functional pipeline's by construction.
        use_cache: Figure 9 ablation switch (hybrids only).
        reshard_at: perform one live reshard after this many completed
            iterations (elasticity ablation): the cluster's own
            ``scale_out`` / ``scale_in``, once per node of difference.
            The pause is priced by
            :meth:`repro.simulation.cluster.PSCostModel.price_migration`
            over the keys and versions the migrations moved and the rows
            their barrier flushed; later iterations run on the new
            shards.
        reshard_to: target PS node count of the reshard (default:
            ``server.num_nodes + 1``, i.e. scale-out by one).
        mttf_s: mean time to failure of one PS node; a Poisson kill
            schedule prices each kill on the victim shard's resident
            entries (hot failover with ``replicas=2``, checkpoint
            recovery otherwise).
        tracer: span sink on the *simulated* clock. When enabled, every
            iteration emits phase spans on per-layer tracks (worker /
            gpu / maintainer / checkpoint), so the exported Chrome
            trace shows deferred maintenance and prefetch riding under
            GPU compute — Figure 7 as a timeline. The ``requests`` of
            its ``iter.pull`` / ``iter.push`` spans and the ``keys`` of
            its ``prefetch.pull`` spans are Figure 2's request pattern.
        registry: labeled-metrics registry. When given, the simulator
            feeds per-phase latency histograms
            (``repro_pull_latency_seconds`` etc.), cumulative
            ``repro_phase_seconds_total{phase=...}`` counters, and — at
            run end — the backend's stat bundle via
            :func:`repro.obs.registry.collect_bundle`.
    """

    def __init__(
        self,
        system: SystemKind,
        cluster: ClusterConfig | None = None,
        server: ServerConfig | None = None,
        cache: CacheConfig | None = None,
        checkpoint: CheckpointConfig | None = None,
        workload: WorkloadGenerator | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        *,
        prefetch: PrefetchConfig | None = None,
        use_cache: bool = True,
        reshard_at: int | None = None,
        reshard_to: int | None = None,
        mttf_s: float | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.system = system
        self.cluster = cluster or ClusterConfig()
        self.server = server or ServerConfig()
        self.cache_config = cache or CacheConfig()
        self.checkpoint_config = checkpoint or CheckpointConfig.none()
        self.workload = workload or WorkloadGenerator()
        self.cal = calibration
        self.use_cache = use_cache
        self.clock = SimClock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and tracer.clock is None:
            # Simulated runs timestamp spans on the simulated clock so
            # exported timelines line up with priced phase durations.
            tracer.clock = self.clock
        self.registry = registry
        pipelined = self.cache_config.pipelined and system == SystemKind.PMEM_OE
        # The one cost model of the run: it holds no node count, so a
        # reshard leaves it as it is.
        self.cost_model = PSCostModel(
            system,
            self.cluster,
            self.server,
            calibration,
            pipelined=pipelined,
            use_cache=use_cache,
            maintainer_threads=self.cache_config.maintainer_threads,
        )
        self.prefetch = prefetch or PrefetchConfig()
        if self.prefetch.enabled:
            if system != SystemKind.PMEM_OE or not pipelined or not use_cache:
                raise ConfigError(
                    "prefetch requires the PMem-OE system with its "
                    "pipelined cache enabled (the overlap slot the "
                    "lookahead pulls hide in)"
                )
        if (self.server.num_nodes > 1 or reshard_at is not None) and (
            self.prefetch.enabled or system not in _CLUSTER_SYSTEMS
        ):
            raise ConfigError(
                f"{system.value}{' with prefetch' * self.prefetch.enabled} is "
                "simulated on one PS node without a reshard: nothing splits "
                "its work per shard"
            )
        self.backend = self._build_backend()
        self._dirty_since_ckpt: set[int] = set()
        #: sampled global batches not trained yet, by batch id
        self._key_stream: dict[int, np.ndarray] = {}
        self._sampled = 0
        #: the lookahead discipline itself, over the functional backend
        self.pipeline = None
        if self.prefetch.enabled:
            # not at module level: repro.dlrm.prefetch imports this package
            from repro.dlrm.prefetch import PrefetchPipeline

            self.pipeline = PrefetchPipeline(
                self.backend,
                self.prefetch,
                self.server.embedding_dim,
                self._batch_keys,
            )
        self.reshard_at = reshard_at
        self.reshard_to = reshard_to
        if reshard_at is not None:
            if reshard_at < 1:
                raise ConfigError(
                    f"reshard_at must be >= 1, got {reshard_at}"
                )
            if self.reshard_to is None:
                self.reshard_to = self.server.num_nodes + 1
            if self.reshard_to < 1:
                raise ConfigError(
                    f"reshard_to must be >= 1, got {self.reshard_to}"
                )
            if self.reshard_to == self.server.num_nodes:
                raise ConfigError(
                    "reshard_to equals the current node count "
                    f"({self.reshard_to}); nothing to migrate"
                )
        elif reshard_to is not None:
            raise ConfigError("reshard_to requires reshard_at")
        if mttf_s is not None and mttf_s <= 0:
            raise ConfigError(f"mttf_s must be positive, got {mttf_s}")
        self.mttf_s = mttf_s
        self._kill_injector = None
        self._validate_checkpoint_mode()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, iterations: int) -> TrainingRunResult:
        """Simulate ``iterations`` synchronous steps and return totals."""
        if iterations <= 0:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        result = TrainingRunResult(
            system=self.system,
            num_workers=self.cluster.num_workers,
            iterations=iterations,
            sim_seconds=0.0,
        )
        timer, fired = None, 0
        if self.checkpoint_config.mode != CheckpointMode.NONE:
            timer = PeriodicTimer(self.checkpoint_config.interval_seconds)

        if self.pipeline is not None:
            self.pipeline.horizon = iterations - 1
        for batch_id in range(iterations):
            shards = self._run_functional_iteration(batch_id)
            timing = self.cost_model.price_iteration(*shards)
            counts = IterationCounts.summed(shards)
            if self.tracer.enabled:
                self._emit_iteration_spans(batch_id, counts, timing)
            if self.registry is not None:
                self._observe_iteration(timing)
            self.clock.advance(timing.total)

            result.net_seconds += timing.net_pull + timing.net_push
            result.pull_service_seconds += timing.pull_service
            result.gpu_seconds += timing.gpu
            result.maintain_inline_seconds += timing.maintain_inline
            result.maintain_deferred_seconds += timing.maintain_deferred
            result.push_service_seconds += timing.push_service
            result.total_requests += counts.requests
            result.prefetch_requests += counts.prefetch_requests
            result.prefetch_overlapped_seconds += timing.prefetch_overlapped

            if timer is not None and timer.due(self.clock.now):
                ckpt_at = self.clock.now
                pause = self._execute_checkpoint(batch_id)
                self.clock.advance(pause)
                result.checkpoint_pause_seconds += pause
                fired += 1
                if self.tracer.enabled:
                    self.tracer.add_span(
                        "checkpoint.pause",
                        start=ckpt_at,
                        duration=pause,
                        track="checkpoint",
                        batch=batch_id,
                        mode=self.checkpoint_config.mode.value,
                    )
                if self.registry is not None:
                    self.registry.histogram(
                        "repro_checkpoint_pause_seconds"
                    ).observe(pause)
                    self.registry.counter(
                        "repro_phase_seconds_total",
                        {"phase": "checkpoint_pause"},
                    ).add(pause)

            if batch_id + 1 == self.reshard_at:
                self._execute_reshard(batch_id, result)

            if self.mttf_s is not None:
                self._poll_failures(batch_id, iterations, result)

        result.sim_seconds = self.clock.now
        # An incremental dump is done when its pause ends; a batch-aware
        # request completes inside later maintain() rounds, or not at all
        # if the run ends first — count what the node completed.
        result.checkpoints_completed = (
            fired if self.checkpoint_config.mode == CheckpointMode.INCREMENTAL
            else self.backend.checkpoints_completed
        )
        metrics = Metrics()
        for shard in self._shards:
            metrics.merge(shard.metrics)
        result.miss_rate = metrics.cache.miss_rate
        if self.registry is not None:
            collect_bundle(self.registry, metrics, {"system": self.system.value})
        return result

    def _emit_iteration_spans(self, batch_id, counts, timing) -> None:
        """Emit one iteration's phase layout, as the cost model priced
        it, as per-track spans starting at the clock's current time.

        The worker track carries the critical path (pull, inline
        maintenance remainder, push); the gpu and maintainer tracks
        carry the overlap window's concurrent work — in a Chrome-trace
        viewer the deferred maintenance and lookahead prefetch visibly
        ride underneath the GPU-compute span (paper Figure 7).
        """
        tracer = self.tracer
        start = self.clock.now
        pull = timing.net_pull + timing.pull_service
        overlap_at = start + pull
        middle = max(
            timing.gpu, timing.maintain_deferred + timing.prefetch_overlapped
        )
        push_at = overlap_at + middle + timing.maintain_inline
        if pull > 0:
            tracer.add_span(
                "iter.pull",
                start=start,
                duration=pull,
                track="worker",
                batch=batch_id,
                requests=counts.requests,
                hits=counts.hits,
                misses=counts.misses,
            )
        if timing.gpu > 0:
            tracer.add_span(
                "gpu.compute",
                start=overlap_at,
                duration=timing.gpu,
                track="gpu",
                batch=batch_id,
            )
        if timing.maintain_deferred > 0:
            tracer.add_span(
                "maintain.deferred",
                start=overlap_at,
                duration=timing.maintain_deferred,
                track="maintainer",
                batch=batch_id,
                processed=counts.maintain_processed,
                flushes=counts.maintain_flushes,
            )
        if timing.prefetch_overlapped > 0:
            tracer.add_span(
                "prefetch.pull",
                start=overlap_at + timing.maintain_deferred,
                duration=timing.prefetch_overlapped,
                track="maintainer",
                batch=batch_id,
                keys=counts.prefetch_requests,
            )
        if timing.maintain_inline > 0:
            tracer.add_span(
                "maintain.inline",
                start=overlap_at + middle,
                duration=timing.maintain_inline,
                track="worker",
                batch=batch_id,
                processed=counts.maintain_processed,
            )
        push = timing.net_push + timing.push_service
        if push > 0:
            tracer.add_span(
                "iter.push",
                start=push_at,
                duration=push,
                track="worker",
                batch=batch_id,
                requests=counts.pushes,
            )

    def _observe_iteration(self, timing) -> None:
        """Feed one iteration's phase prices into the registry."""
        registry = self.registry
        registry.histogram("repro_pull_latency_seconds").observe(
            timing.net_pull + timing.pull_service
        )
        registry.histogram("repro_push_latency_seconds").observe(
            timing.net_push + timing.push_service
        )
        registry.histogram("repro_maintain_latency_seconds").observe(
            timing.maintain_deferred + timing.maintain_inline
        )
        registry.histogram("repro_iteration_seconds").observe(timing.total)
        for phase, seconds in (
            ("net_pull", timing.net_pull),
            ("pull_service", timing.pull_service),
            ("gpu", timing.gpu),
            ("maintain_deferred", timing.maintain_deferred),
            ("maintain_inline", timing.maintain_inline),
            ("prefetch_overlapped", timing.prefetch_overlapped),
            ("net_push", timing.net_push),
            ("push_service", timing.push_service),
        ):
            if seconds:
                registry.counter(
                    "repro_phase_seconds_total", {"phase": phase}
                ).add(seconds)

    @staticmethod
    def interval_for_epoch_fraction(
        epoch_seconds: float, paper_interval_minutes: float, paper_epoch_hours: float
    ) -> float:
        """Scale a paper checkpoint interval to a simulated epoch.

        "Every 20 minutes of a 5.33-hour epoch" becomes the same
        *fraction* of whatever the simulated epoch lasts.
        """
        if epoch_seconds <= 0 or paper_interval_minutes <= 0 or paper_epoch_hours <= 0:
            raise ConfigError("epoch/interval inputs must be positive")
        fraction = (paper_interval_minutes / 60.0) / paper_epoch_hours
        return epoch_seconds * fraction

    # ------------------------------------------------------------------
    # functional iteration
    # ------------------------------------------------------------------

    @property
    def _shards(self) -> list:
        """The backend's shards: the cluster's nodes, or a baseline's one
        node."""
        return getattr(self.backend, "nodes", [self.backend])

    def _batch_keys(self, batch_id: int) -> np.ndarray:
        """Flat key array (duplicates kept) of global batch ``batch_id``.

        Batches are sampled lazily in order, so the generated stream is
        identical whether or not future batches are peeked early; a
        batch is dropped from the stream once it is trained.
        """
        while self._sampled <= batch_id:
            batches = self.workload.sample_worker_batches(
                self.cluster.num_workers, self.cluster.batch_size
            )
            self._key_stream[self._sampled] = np.concatenate(batches)
            self._sampled += 1
        return self._key_stream[batch_id]

    def _run_functional_iteration(self, batch_id: int) -> list[IterationCounts]:
        """Train global batch ``batch_id`` on the backend; returns each
        shard's counts."""
        keys = self._batch_keys(batch_id)
        del self._key_stream[batch_id]
        if self.checkpoint_config.mode == CheckpointMode.INCREMENTAL:
            self._dirty_since_ckpt.update(keys.tolist())
        pipeline = self.pipeline
        # One zero gradient per distinct key, keys ascending: the entries
        # (and the order) a push of every key would update.
        pushed = np.unique(keys)
        grads = np.zeros((len(pushed), self.server.embedding_dim), dtype=np.float32)
        if pipeline is None:
            # Each shard is sent its slice of the batch: request order,
            # duplicates kept.
            shards = self._shards
            if len(shards) == 1:
                slices = [keys]
            else:
                owners = self.backend.partitioner.owners(keys)
                slices = [keys[owners == index] for index in range(len(shards))]
            pulls = [shard.pull(part, batch_id) for shard, part in zip(shards, slices)]
            # A baseline has no cache to maintain (no rounds).
            rounds = self.backend.maintain(batch_id) or [aggregate_maintain([])]
            self.backend.push(pushed, grads, batch_id)
            return [
                self._shard_counts(len(part), pull.hits, pull.misses, pull.created, maintain)
                for part, pull, maintain in zip(slices, pulls, rounds)
            ]
        # One pipeline step, counted into a bundle of its own so the
        # iteration's share can be priced; the run's totals stay on
        # ``pipeline.stats``.
        total, pipeline.stats = pipeline.stats, PrefetchStats()
        pipeline.begin_batch(batch_id, keys)
        maintain = aggregate_maintain(pipeline.run_overlap(batch_id))
        pipeline.push(pushed, grads, batch_id)
        pipeline.end_batch(batch_id)
        step, pipeline.stats = pipeline.stats, total
        total.merge(step)
        return [
            self._shard_counts(
                step.demand_keys,
                step.demand_hits,
                step.demand_misses,
                step.demand_created,
                maintain,
                prefetch_requests=step.prefetch_keys + step.patched_keys,
                prefetch_hits=step.lookahead_hits,
                prefetch_misses=step.lookahead_misses,
                prefetch_created=step.lookahead_created,
                push_requests=len(keys),
            )
        ]

    def _shard_counts(
        self, requests, hits, misses, created, maintain, **lookahead
    ) -> IterationCounts:
        """One shard's :class:`IterationCounts` from what its pulls
        answered and its maintenance round."""
        if not self.use_cache and self.system in _CLUSTER_SYSTEMS:
            # Cache-disabled ablation: hit/miss accounting is moot; the
            # cost model treats every request as a PMem access.
            hits, misses = 0, requests - created
            maintain = replace(maintain, loads=0, flushes=0, evictions=0)
        return IterationCounts(
            requests=requests,
            hits=hits,
            misses=misses,
            created=created,
            maintain_processed=maintain.processed,
            maintain_loads=maintain.loads,
            maintain_flushes=maintain.flushes,
            maintain_evictions=maintain.evictions,
            **lookahead,
        )

    # ------------------------------------------------------------------
    # live resharding
    # ------------------------------------------------------------------

    def _execute_reshard(self, batch_id: int, result: TrainingRunResult) -> None:
        """Reshard the functional cluster to ``reshard_to`` nodes and
        price the pause.

        The cluster's own :class:`repro.core.migration.ShardMigrator`
        runs, one ``scale_out`` / ``scale_in`` per node of difference:
        training quiesces at a barrier checkpoint, every key whose owner
        changes is read from source PMem, shipped, written on the target
        and indexed, and training resumes on the new shards. Growing by
        one node to ``m`` moves ~``1/m`` of the resident keys. The pause
        is priced from the migrations' reports and the rows their
        barrier and exports flushed on the shards.
        """
        backend = self.backend
        members = list(backend.nodes)
        flushed = -sum(node.metrics.pmem_flush_entries for node in members)
        steps = self.reshard_to - len(members)
        move = backend.scale_out if steps > 0 else backend.scale_in
        reports = [move() for __ in range(abs(steps))]
        members += backend.nodes[len(members):]  # the scale-out targets
        flushed += sum(node.metrics.pmem_flush_entries for node in members)
        keys_moved = sum(report.keys_moved for report in reports)
        keys_total = reports[0].keys_total
        result.migration_versions_moved = sum(report.versions_moved for report in reports)
        result.migration_flushed_entries = flushed
        timing = self.cost_model.price_migration(
            keys_moved=keys_moved,
            versions_moved=result.migration_versions_moved,
            flushed_entries=result.migration_flushed_entries,
        )
        start = self.clock.now
        self.clock.advance(timing.total)
        result.migration_pause_seconds += timing.total
        result.migration_keys_moved += keys_moved
        result.migration_keys_total = keys_total
        result.migrations_completed += 1
        if self.tracer.enabled:
            self.tracer.add_span(
                "migration.pause",
                start=start,
                duration=timing.total,
                track="migration",
                batch=batch_id,
                keys_moved=keys_moved,
                keys_total=keys_total,
                to_nodes=self.reshard_to,
            )
        if self.registry is not None:
            self.registry.histogram(
                "repro_migration_pause_seconds"
            ).observe(timing.total)
            self.registry.counter(
                "repro_phase_seconds_total", {"phase": "migration_pause"}
            ).add(timing.total)
            self.registry.counter("repro_migration_keys_moved_total").add(
                keys_moved
            )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def _poll_failures(
        self, batch_id: int, iterations: int, result: TrainingRunResult
    ) -> None:
        """Fire any MTTF-scheduled node kills that are now due.

        The Poisson schedule is sampled lazily after the first priced
        iteration (the horizon needs an iteration-time estimate) and
        polled between iterations — a kill therefore lands mid-run,
        exactly where the chaos soak drops them on the functional path.
        """
        from repro.failure.injection import NodeKillInjector, NodeKillSchedule

        if self._kill_injector is None:
            per_iter = self.clock.now / (batch_id + 1)
            horizon = max(per_iter * iterations * 3.0, self.mttf_s * 3.0)
            self._kill_injector = NodeKillInjector(
                NodeKillSchedule.poisson(
                    self.mttf_s,
                    horizon,
                    len(self._shards),
                    seed=MTTF_SEED,
                )
            )
        for __, victim in self._kill_injector.due(self.clock.now):
            self._execute_failure(victim, result)

    def _execute_failure(self, victim: int, result: TrainingRunResult) -> None:
        """Price one node death: hot failover or checkpoint recovery.

        ``replicas=2`` pays the bounded unavailability window (lease
        wait-out + role switch) and queues background re-replication;
        ``replicas=1`` pays the full checkpoint-recovery rebuild — the
        paper's ~380 s at 2.1 B entries, scaled to the entries the
        victim shard holds. A victim a scale-in removed is no longer a
        process: its kill finds nothing to stop.
        """
        if victim >= len(self._shards):
            return
        result.failures_injected += 1
        at = self.clock.now
        timing = self.cost_model.price_failover(
            resident_entries=self._shards[victim].num_entries,
            lease_s=self.server.lease_s,
        )
        if self.server.replicas == 2:
            pause = timing.unavailability
            result.failovers_completed += 1
            result.failover_pause_seconds += pause
            result.rereplication_seconds += timing.rereplication
            kind = "failover"
        else:
            pause = timing.recovery_alternative
            result.recovery_pause_seconds += pause
            kind = "recovery"
        self.clock.advance(pause)
        if self.tracer.enabled:
            self.tracer.add_span(
                f"failure.{kind}",
                start=at,
                duration=pause,
                track="failure",
                node=victim,
            )
        if self.registry is not None:
            name = (
                "repro_failover_unavailability_seconds"
                if kind == "failover"
                else "repro_recovery_pause_seconds"
            )
            self.registry.histogram(name).observe(pause)
            self.registry.counter(
                "repro_failures_injected_total", {"node": str(victim)}
            ).add(1)

    def _execute_checkpoint(self, batch_id: int) -> float:
        """Fire one checkpoint; returns the training pause in seconds."""
        mode = self.checkpoint_config.mode
        pause = 0.0
        if mode in (CheckpointMode.BATCH_AWARE, CheckpointMode.SPARSE_ONLY):
            # The sparse snapshot piggybacks on cache maintenance: the
            # request is queued and completion happens inside later
            # maintain() rounds, whose flush traffic is priced in the
            # (overlapped) deferred slot -> no training pause at all.
            self.backend.request_checkpoint(batch_id)
        elif mode == CheckpointMode.INCREMENTAL:
            # Synchronous incremental dump of the dirty set; when the
            # checkpoint device is the PMem the training system lives
            # on, the dump's writes contend with training I/O.
            dirty = len(self._dirty_since_ckpt)
            eb = self.server.entry_bytes
            dump = dirty * (
                eb / PMEM_SPEC.write_bw + self.cal.incremental_entry_dump_s
            )
            if self.system in (SystemKind.PMEM_OE, SystemKind.ORI_CACHE):
                dump *= self.cal.incremental_interference_factor
            else:
                dump *= self.cal.incremental_dram_ps_factor
            pause += dump
            self._dirty_since_ckpt.clear()
        if self.checkpoint_config.include_dense:
            pause += self._dense_pause()
        return pause

    def _dense_pause(self) -> float:
        """TensorFlow's dense-model checkpoint: one GPU dumps the MLP.

        The dense part is <1 % of the model (Section VI-A); its dump
        goes over the network to backup storage and pauses training,
        independent of worker count (only one GPU dumps).
        """
        dense_bytes = self.cal.dense_model_fraction * self._model_bytes()
        return dense_bytes / self.cal.dense_ckpt_bw

    def _model_bytes(self) -> int:
        return self.workload.config.num_keys * self.server.entry_bytes

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _build_backend(self):
        server = replace(self.server, initializer_scale=0.0)
        if self.system in _CLUSTER_SYSTEMS:
            # ``cache`` is the cluster's DRAM budget: each shard (and a
            # scale-out node, which the cluster builds alike) holds its
            # share.
            capacity = max(1, self.cache_config.capacity_bytes // server.num_nodes)
            return OpenEmbeddingServer(
                server, replace(self.cache_config, capacity_bytes=capacity)
            )
        if self.system in (SystemKind.DRAM_PS, SystemKind.TF_PS):
            return DRAMPSNode(server)
        if self.system == SystemKind.PMEM_HASH:
            return PMemHashNode(server)
        raise ConfigError(f"no backend for system {self.system}")

    def _validate_checkpoint_mode(self) -> None:
        mode = self.checkpoint_config.mode
        if mode in (CheckpointMode.BATCH_AWARE, CheckpointMode.SPARSE_ONLY):
            if self.system not in (SystemKind.PMEM_OE,):
                raise ConfigError(
                    f"{mode.value} checkpointing requires the PMem-OE system "
                    f"(co-designed with its pipelined cache), got {self.system}"
                )
