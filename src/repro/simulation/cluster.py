"""Per-phase PS service-time model for the training simulator.

One :class:`PSCostModel` prices the parameter-server side of a
synchronous training iteration for each system of Table III. All
inputs are *per-iteration, per-shard op counts* produced by the
functional cluster (hits, misses, flushes, ...); all outputs are
simulated seconds. A synchronous step waits for its slowest shard, so
every PS phase is priced at the largest of the shards' times.

The phase structure of an iteration (Figure 2 / Figure 5):

1. **pull burst** — all workers request their batch's keys at once:
   network transfer + PS service (hash probes, DRAM/PMem reads, and for
   inline-maintained systems the serialized cache-maintenance sections).
2. **GPU compute** — dense model forward/backward; for OpenEmbedding
   the deferred cache maintenance runs in this window.
3. **push burst** — gradients return: network + optimizer application
   (+ inline maintenance again for Ori-Cache).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from repro.config import ClusterConfig, ServerConfig
from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION
from repro.simulation.contention import parallel_section_time, serialized_section_time
from repro.simulation.device import DRAM_SPEC, MemoryDevice, PMEM_SPEC
from repro.simulation.network import NetworkModel


class SystemKind(enum.Enum):
    """The parameter-server systems compared in the evaluation."""

    DRAM_PS = "dram_ps"
    PMEM_OE = "pmem_oe"
    ORI_CACHE = "ori_cache"
    PMEM_HASH = "pmem_hash"
    TF_PS = "tf_ps"


@dataclass(frozen=True)
class IterationCounts:
    """One PS shard's functional op counts of one synchronous iteration.

    The simulator fills one per shard from that shard's own
    :class:`~repro.core.cache.PullResult` and
    :class:`~repro.core.cache.MaintainResult`; :meth:`summed` adds them
    up for the network bursts, the spans and the run totals.

    ``requests`` counts the pulls on the *critical path*. Without a
    prefetch pipeline that is every lookup of every worker routed to
    the shard; with one it is only the demand misses of the lookahead
    buffer. The ``prefetch_*`` fields count the lookahead pulls issued
    inside the overlap window (zero when prefetch is off); pushes always
    carry the full duplicate burst and are counted by the caller via
    ``requests`` of the unprefetched schedule, passed as
    ``push_requests``.
    """

    requests: int  # critical-path pull requests sent to the shard
    hits: int
    misses: int
    created: int
    maintain_processed: int
    maintain_loads: int
    maintain_flushes: int
    maintain_evictions: int
    prefetch_requests: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_created: int = 0
    push_requests: int | None = None  # defaults to ``requests``

    @property
    def pushes(self) -> int:
        """The push burst's requests (``push_requests`` or ``requests``)."""
        return self.requests if self.push_requests is None else self.push_requests

    @staticmethod
    def summed(shards) -> "IterationCounts":
        """Every field added up over ``shards``."""
        total = {
            spec.name: sum(getattr(counts, spec.name) or 0 for counts in shards)
            for spec in fields(IterationCounts)
        }
        total["push_requests"] = sum(counts.pushes for counts in shards)
        return IterationCounts(**total)


@dataclass(frozen=True)
class MigrationTiming:
    """Per-phase simulated seconds of one live shard migration.

    Training is quiesced at the batch barrier, so ``total`` is the
    throughput dip (pause) the reshard costs — what
    ``benchmarks/bench_elastic.py`` sets against the near-total remap
    of the paper's static ``hash % n``.
    """

    barrier_flush: float
    source_read: float
    network: float
    target_write: float
    index_insert: float
    total: float


@dataclass(frozen=True)
class FailoverTiming:
    """Per-phase simulated seconds of one detected failure + failover.

    ``unavailability`` is the client-visible outage (lease wait-out +
    role switch); ``rereplication`` is the background copy restoring a
    fresh backup — off the critical path, like deferred maintenance.
    ``recovery_alternative`` prices what the same failure would cost
    without a replica (the paper's checkpoint-recovery path, ~380 s at
    2.1 B entries), so every failover report carries its own ablation.
    """

    detection: float
    promotion: float
    unavailability: float
    rereplication: float
    recovery_alternative: float
    total: float


@dataclass(frozen=True)
class IterationTiming:
    """Per-phase simulated seconds of one iteration."""

    net_pull: float
    pull_service: float
    gpu: float
    maintain_deferred: float  # runs concurrently with gpu when pipelined
    maintain_inline: float  # charged on the critical path
    net_push: float
    push_service: float
    total: float
    #: lookahead prefetch work (network + PS service), priced into the
    #: overlap slot alongside deferred maintenance
    prefetch_overlapped: float = 0.0


class PSCostModel:
    """Prices PS phases for one deployment shape.

    The model holds no node count: it prices the shards it is handed,
    one :class:`IterationCounts` each, and a step takes its slowest
    shard's time in every PS phase (:meth:`price_iteration`).

    Args:
        system: which Table III system's cost structure to use.
        cluster: worker count / batch / threads / network.
        server: the entry size (embedding dim).
        calibration: cost constants.
        pipelined: charge maintenance overlapped with GPU compute
            (OpenEmbedding's pipeline) or on the critical path.
        use_cache: False models the cache-disabled ablation of Figure 9
            — every access goes to PMem directly.
    """

    def __init__(
        self,
        system: SystemKind,
        cluster: ClusterConfig,
        server: ServerConfig,
        calibration: Calibration = DEFAULT_CALIBRATION,
        *,
        pipelined: bool = True,
        use_cache: bool = True,
        maintainer_threads: int = 4,
    ):
        self.system = system
        self.cluster = cluster
        self.cal = calibration
        self.pipelined = pipelined
        self.use_cache = use_cache
        self.maintainer_threads = maintainer_threads
        self.dram = MemoryDevice(DRAM_SPEC)
        self.pmem = MemoryDevice(PMEM_SPEC)
        self.network = NetworkModel(cluster.network)
        self.entry_bytes = server.entry_bytes

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------

    def price_iteration(self, *shards: IterationCounts) -> IterationTiming:
        """Simulated time of one iteration given each shard's op counts.

        A synchronous step waits for its slowest shard: each PS phase
        (pull service, deferred and inline maintenance, push service,
        prefetch service) is the largest over ``shards``. The network
        bursts carry every shard's requests, so they are priced on the
        sums.
        """
        workers = self.cluster.num_workers
        total = IterationCounts.summed(shards)
        per_worker_pull = max(1, total.requests // max(1, workers))
        per_worker_push = max(1, total.pushes // max(1, workers))
        net_pull = self.network.burst_transfer_time(
            workers, per_worker_pull * (self.entry_bytes + 8)
        )
        net_push = self.network.burst_transfer_time(
            workers, per_worker_push * (self.entry_bytes + 8)
        )
        pull_service, maintain_deferred, maintain_inline, push_service = (
            max(phase) for phase in zip(*map(self._service_times, shards))
        )
        prefetch_work = 0.0
        if total.prefetch_requests > 0:
            # Lookahead pulls: same network + cache-pull cost structure
            # as the demand burst, but issued inside the overlap window.
            per_worker_pf = max(1, total.prefetch_requests // max(1, workers))
            prefetch_work = self.network.burst_transfer_time(
                workers, per_worker_pf * (self.entry_bytes + 8)
            ) + max(map(self._prefetch_service, shards))
        gpu = self.cluster.gpu_batch_time_s
        if self.pipelined:
            middle = max(gpu, maintain_deferred + prefetch_work)
            inline = maintain_inline
        else:
            # Prefetch requires the pipeline; without it the lookahead
            # work degenerates onto the critical path.
            middle = gpu
            inline = maintain_inline + maintain_deferred + prefetch_work
        total = net_pull + pull_service + middle + inline + net_push + push_service
        return IterationTiming(
            net_pull=net_pull,
            pull_service=pull_service,
            gpu=gpu,
            maintain_deferred=maintain_deferred if self.pipelined else 0.0,
            maintain_inline=inline,
            net_push=net_push,
            push_service=push_service,
            total=total,
            prefetch_overlapped=prefetch_work if self.pipelined else 0.0,
        )

    def price_migration(
        self, *, keys_moved: int, versions_moved: int, flushed_entries: int
    ) -> MigrationTiming:
        """Simulated pause of one live reshard (quiesce -> resume).

        Phases mirror the :class:`~repro.core.migration.ShardMigrator`
        protocol: the barrier's cache flush, a sequential PMem read of
        every transferred version on the sources, a point-to-point
        network burst carrying the packed entries, the target's PMem
        writes, and per-key DRAM index inserts on the new owner. The
        atomic ring commit itself is one 8-byte word — free at this
        resolution. The simulator passes what the real migration did:
        its :class:`~repro.core.migration.MigrationReport` and the rows
        its barrier flushed on the shards.

        Args:
            keys_moved: distinct keys changing owner.
            versions_moved: stored versions transferred.
            flushed_entries: cache rows the barrier (and the exports)
                flushed to PMem.
        """
        threads = self.cluster.ps_threads_per_node
        eb = self.entry_bytes
        barrier = self.pmem.burst_write(flushed_entries, eb, threads)
        read = self.pmem.burst_read(versions_moved, eb, threads)
        # Per-version wire framing: key u64 + batch i64 header.
        net = self.network.burst_transfer_time(1, versions_moved * (eb + 16))
        write = self.pmem.burst_write(versions_moved, eb, threads)
        insert = keys_moved * self.cal.index_rebuild_pmem_oe_s
        total = barrier + read + net + write + insert
        return MigrationTiming(
            barrier_flush=barrier,
            source_read=read,
            network=net,
            target_write=write,
            index_insert=insert,
            total=total,
        )

    def price_failover(
        self,
        *,
        resident_entries: int,
        lease_s: float,
        promotion_s: float | None = None,
    ) -> FailoverTiming:
        """Simulated cost of one PS-node failure under hot failover.

        Detection is bounded by the lease (the client waits out the
        remainder before it may declare death — worst case the full
        ``lease_s``); promotion is a role switch, independent of model
        size. Re-replicating a fresh backup moves the shard once —
        same read/wire/write/insert structure as a migration transfer —
        but runs in the background behind training, so only
        ``unavailability`` pauses the run.

        Args:
            resident_entries: entries resident on the failed shard.
            lease_s: the detector's lease (``ServerConfig.lease_s``).
            promotion_s: role-switch cost; defaults to
                :data:`repro.core.replication.FAILOVER_SECONDS`.
        """
        from repro.core.recovery import estimate_recovery_seconds

        if promotion_s is None:
            from repro.core.replication import FAILOVER_SECONDS

            promotion_s = FAILOVER_SECONDS
        threads = self.cluster.ps_threads_per_node
        eb = self.entry_bytes
        read = self.pmem.burst_read(resident_entries, eb, threads)
        net = self.network.burst_transfer_time(1, resident_entries * (eb + 16))
        write = self.pmem.burst_write(resident_entries, eb, threads)
        insert = resident_entries * self.cal.index_rebuild_pmem_oe_s
        rereplication = read + net + write + insert
        unavailability = lease_s + promotion_s
        recovery = estimate_recovery_seconds(
            entries=resident_entries,
            versions=resident_entries,
            entry_bytes=eb,
            calibration=self.cal,
        )
        return FailoverTiming(
            detection=lease_s,
            promotion=promotion_s,
            unavailability=unavailability,
            rereplication=rereplication,
            recovery_alternative=recovery,
            total=unavailability,
        )

    # ------------------------------------------------------------------
    # per-system phase pricing
    # ------------------------------------------------------------------

    def _service_times(self, counts: IterationCounts) -> tuple[float, float, float, float]:
        """Returns (pull_service, maintain_deferred, maintain_inline,
        push_service) for one PS shard's share of the burst.

        ``r`` is the shard's critical-path pull count, ``r_push`` its
        push count — identical without prefetch, but with a lookahead
        buffer the pull side shrinks while pushes still carry every
        duplicate gradient.
        """
        threads = self.cluster.ps_threads_per_node
        workers = self.cluster.num_workers
        eb = self.entry_bytes
        cal = self.cal
        r, r_push = counts.requests, counts.pushes
        hits, misses, created = counts.hits, counts.misses, counts.created
        loads, flushes = counts.maintain_loads, counts.maintain_flushes
        processed = counts.maintain_processed

        hash_probe = parallel_section_time(r, cal.hash_lookup_s, threads)
        create = serialized_section_time(
            created,
            cal.entry_create_s,
            contenders=workers,
            contention_factor=cal.lock_contention_factor,
        )
        apply_updates = parallel_section_time(r_push, cal.update_apply_s, threads)

        if self.system == SystemKind.DRAM_PS:
            pull = hash_probe + create + self.dram.burst_read(r, eb, threads)
            push = apply_updates + self.dram.burst_write(r_push, eb, threads)
            return pull, 0.0, 0.0, push

        if self.system == SystemKind.TF_PS:
            # Single-process PS: a heavier per-entry path plus a
            # serialized session/graph section contended by all workers.
            def tf_section(n: int) -> float:
                return serialized_section_time(
                    n,
                    cal.tf_ps_entry_s + eb * cal.tf_ps_per_byte_s,
                    contenders=workers,
                    contention_factor=cal.lock_contention_factor,
                )

            pull = (
                hash_probe
                + create
                + tf_section(r)
                + self.dram.burst_read(r, eb, threads)
            )
            push = (
                apply_updates
                + tf_section(r_push)
                + self.dram.burst_write(r_push, eb, threads)
            )
            return pull, 0.0, 0.0, push

        if self.system == SystemKind.PMEM_HASH:
            # Everything on PMem, on the critical path, through a
            # PMem-aware concurrent hash whose operations serialize on
            # persistent-allocator and bucket-lock sections.
            def pm_section(n: int) -> float:
                return serialized_section_time(
                    n,
                    cal.pmem_hash_section_s,
                    contenders=workers,
                    contention_factor=cal.pmem_hash_contention_factor,
                )

            pull = hash_probe + create + pm_section(r) + self.pmem.burst_read(
                r, eb, threads
            )
            push = (
                apply_updates
                + pm_section(r_push)
                + self.pmem.burst_read(r_push, eb, threads)
                + self.pmem.burst_write(r_push, eb, threads)
            )
            return pull, 0.0, 0.0, push

        # Cache-based hybrids: PMEM_OE and ORI_CACHE.
        if not self.use_cache:
            # Figure 9 ablation: cache disabled -> every access is a
            # contended PMem read on the pull path and a PMem
            # write-back on the push path; with the pipeline enabled
            # the write-back half is deferred behind GPU compute.
            def pm_ops(n: int) -> float:
                return serialized_section_time(
                    n,
                    cal.pmem_op_overhead_s,
                    contenders=workers,
                    contention_factor=cal.pmem_contention_factor,
                )

            pull = hash_probe + create + pm_ops(r) + self.pmem.burst_read(
                r, eb, threads
            )
            writeback = pm_ops(r_push) + self.pmem.burst_write(r_push, eb, threads)
            push = apply_updates + self.pmem.burst_read(r_push, eb, threads)
            return pull, writeback, 0.0, push

        pm_miss = serialized_section_time(
            misses,
            cal.pmem_op_overhead_s,
            contenders=workers,
            contention_factor=cal.pmem_contention_factor,
        )
        pull_common = (
            hash_probe
            + create
            + self.dram.burst_read(hits, eb, threads)
            + pm_miss
            + self.pmem.burst_read(misses, eb, threads)
        )
        push_common = apply_updates + self.dram.burst_write(r_push, eb, threads)

        if self.system == SystemKind.PMEM_OE and self.pipelined:
            # Deferred maintenance on dedicated threads, no request-path
            # lock: priced into the slot that overlaps GPU compute.
            deferred = (
                parallel_section_time(
                    processed, cal.maintainer_entry_s, self.maintainer_threads
                )
                + self.pmem.burst_read(loads, eb, self.maintainer_threads)
                + self.pmem.burst_write(flushes, eb, self.maintainer_threads)
            )
            return pull_common, deferred, 0.0, push_common

        # Inline maintenance (Ori-Cache, or PMem-OE with the pipeline
        # disabled — the Figure 9 ablation): the LRU splice is a
        # serialized, contended section per access on BOTH the pull and
        # the push (a black-box cache treats the paired pull/update as
        # two independent operations), and miss-fill reads plus eviction
        # write-backs land on the pull critical path.
        inline_pull = serialized_section_time(
            r,
            cal.inline_maint_section_s,
            contenders=workers,
            contention_factor=cal.lock_contention_factor,
        )
        inline_push = serialized_section_time(
            r_push,
            cal.inline_maint_section_s,
            contenders=workers,
            contention_factor=cal.lock_contention_factor,
        )
        fill_io = self.pmem.burst_read(loads, eb, threads)
        evict_io = self.pmem.burst_write(flushes, eb, threads)
        pull = pull_common + inline_pull + fill_io + evict_io
        push = push_common + inline_push
        return pull, 0.0, 0.0, push

    def _prefetch_service(self, counts: IterationCounts) -> float:
        """PS-side cost of the lookahead pull burst (overlap slot).

        Same cache-pull cost structure as the demand burst — hash
        probes, entry creation, DRAM hits, contended PMem misses — but
        running on the maintenance side of the pipeline, so it never
        touches the critical path.
        """
        threads = self.cluster.ps_threads_per_node
        workers = self.cluster.num_workers
        eb = self.entry_bytes
        cal = self.cal
        r, hits = counts.prefetch_requests, counts.prefetch_hits
        misses, created = counts.prefetch_misses, counts.prefetch_created
        hash_probe = parallel_section_time(r, cal.hash_lookup_s, threads)
        create = serialized_section_time(
            created,
            cal.entry_create_s,
            contenders=workers,
            contention_factor=cal.lock_contention_factor,
        )
        pm_miss = serialized_section_time(
            misses,
            cal.pmem_op_overhead_s,
            contenders=workers,
            contention_factor=cal.pmem_contention_factor,
        )
        return (
            hash_probe
            + create
            + self.dram.burst_read(hits, eb, threads)
            + pm_miss
            + self.pmem.burst_read(misses, eb, threads)
        )
