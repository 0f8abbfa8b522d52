"""Closed-loop online-serving simulation (QPS / tail latency / chaos).

Drives a :class:`~repro.dlrm.hps.HierarchicalPS` tier with a
closed-loop request generator over the simulated device and network
models, producing the p50/p95/p99 read-latency distributions the
serving benchmark reports:

* a **cache hit** costs a client-local DRAM probe
  (:data:`~repro.simulation.device.DRAM_SPEC`);
* a **miss** pays the RPC wire both ways plus a PMem burst read on the
  authoritative shard (:data:`~repro.simulation.device.PMEM_SPEC`).
  When the backend is a :class:`~repro.network.frontend.RemotePSClient`
  sharing the driver's :class:`~repro.simulation.clock.SimClock`, the
  wire time is already charged by the RPC channel and the cost model
  charges only the device side.

:class:`TrainServeSoak` runs the same read loop *while training pushes
and checkpoint barriers land on the same cluster*, recording a
reference copy of the embedding table at every completed checkpoint and
auditing every served row against the reference pinned at the row's
reported Checkpointed Batch ID — the torn-row / staleness-bound check
the consistency contract promises. With ``kill_primary_at`` set it also
kills one serving replica mid-soak and asserts reads keep flowing
through the failover machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.initializer import key_seeded_rows
from repro.core.serving_backend import LookupResult
from repro.errors import SimulationError
from repro.network.messages import FRAME_HEADER, LookupRequest
from repro.obs.histogram import Histogram
from repro.simulation.clock import SimClock
from repro.simulation.device import DRAM_SPEC, PMEM_SPEC, MemoryDevice
from repro.simulation.network import NetworkModel

#: Fixed bytes of a lookup's request and reply frames: the frame header
#: and the body's header (``LookupResult`` is the reply kind once
#: ``network.messages`` has registered it).
_REQUEST_HEADER = FRAME_HEADER.size + LookupRequest.WIRE.header.size
_RESPONSE_HEADER = FRAME_HEADER.size + LookupResult.WIRE.header.size
#: Client-side threads probing the hot-row cache.
PROBE_THREADS = 8
#: PS-node device threads serving the store reads.
DEVICE_THREADS = 4
#: :class:`TrainServeSoak` runs one training step every this many requests.
SOAK_TRAIN_EVERY = 3
#: :class:`TrainServeSoak` completes a barrier checkpoint every this many steps.
SOAK_CHECKPOINT_EVERY = 2
#: Rows one :class:`TrainServeSoak` training step pulls and pushes.
SOAK_TRAIN_KEYS = 32
#: The shard whose primary :class:`TrainServeSoak` kills at ``kill_primary_at``.
SOAK_KILL_NODE = 0


class ServingCostModel:
    """Simulated time per hierarchical-read component.

    Args:
        network: wire model for the client -> shard miss path. Pass
            None when the backend charges its own wire time (the RPC
            transports), so only device time is added here.
    """

    def __init__(self, network: NetworkModel | None = None):
        self.dram = MemoryDevice(DRAM_SPEC)
        self.pmem = MemoryDevice(PMEM_SPEC)
        self.network = network

    def hit_seconds(self, rows: int, row_bytes: int) -> float:
        """Client-local DRAM probe of ``rows`` cached rows."""
        return self.dram.burst_read(rows, row_bytes, PROBE_THREADS)

    def miss_seconds(self, rows: int, row_bytes: int, flows: int = 1) -> float:
        """Remote fetch: wire (if modelled here) + shard device read."""
        elapsed = self.pmem.burst_read(rows, row_bytes, DEVICE_THREADS)
        if self.network is not None and rows:
            request = _REQUEST_HEADER + 8 * rows
            response = _RESPONSE_HEADER + rows * row_bytes
            elapsed += self.network.transfer_time(request, flows)
            elapsed += self.network.transfer_time(response, flows)
        return elapsed


@dataclass
class ServingReport:
    """One serving run's headline numbers."""

    requests: int
    rows: int
    sim_seconds: float
    latency: Histogram
    hit_latency: Histogram
    miss_latency: Histogram
    hit_rate: float
    cold_rows: int

    @property
    def qps(self) -> float:
        return self.requests / self.sim_seconds if self.sim_seconds else 0.0

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "sim_seconds": self.sim_seconds,
            "qps": self.qps,
            "hit_rate": self.hit_rate,
            "cold_rows": self.cold_rows,
            "p50_us": self.latency.p50 * 1e6,
            "p95_us": self.latency.p95 * 1e6,
            "p99_us": self.latency.p99 * 1e6,
            "hit_p99_us": self.hit_latency.p99 * 1e6,
            "miss_p99_us": self.miss_latency.p99 * 1e6,
        }


class ServingLoadDriver:
    """Closed-loop QPS/latency driver over a serving tier.

    One in-flight request at a time (closed loop): sample a key batch
    from ``distribution``, issue ``tier.lookup``, charge the cost model
    for what the lookup actually did (hits probe DRAM, misses pay wire
    + PMem), and record the request's simulated latency.

    Args:
        tier: a :class:`~repro.dlrm.hps.HierarchicalPS` (or any object
            with ``lookup`` + ``stats``).
        distribution: key sampler (``sample_keys(n)``).
        cost_model: see :class:`ServingCostModel`.
        clock: simulated clock; shared with the backend's RPC channels
            when the wire should charge itself.
        batch_keys: rows per request.
        key_offset: added (mod ``num_keys``) to every sampled key —
            switching it mid-run re-targets the hot set, which is how
            the flash-crowd scenario is expressed.
        slo: optional :class:`~repro.obs.SLOTracker`; every request's
            simulated latency feeds the ``serving_p99`` latency
            objective (registered get-or-create with a 2 ms default
            threshold — register it first to pick your own target).
    """

    def __init__(
        self,
        tier,
        distribution,
        cost_model: ServingCostModel,
        clock: SimClock,
        batch_keys: int = 64,
        num_keys: int | None = None,
        key_offset: int = 0,
        slo=None,
    ):
        if batch_keys < 1:
            raise SimulationError(f"batch_keys must be >= 1, got {batch_keys}")
        self.tier = tier
        self.distribution = distribution
        self.cost = cost_model
        self.clock = clock
        self.batch_keys = batch_keys
        self.num_keys = num_keys
        self.key_offset = key_offset
        self.slo = slo
        if slo is not None:
            slo.latency("serving_p99", 2e-3)
        dim = tier.backend.server_config.embedding_dim
        self.row_bytes = dim * 4

    def sample(self) -> np.ndarray:
        keys = np.asarray(self.distribution.sample_keys(self.batch_keys))
        if self.key_offset and self.num_keys:
            keys = (keys + self.key_offset) % self.num_keys
        return keys

    def run(self, requests: int, on_request=None) -> ServingReport:
        """Drive ``requests`` closed-loop lookups; returns the report.

        ``on_request(i)`` (optional) runs before each request — the
        soak hooks train/checkpoint/kill events in there.
        """
        latency = Histogram("serving_latency")
        hit_latency = Histogram("serving_latency_hit")
        miss_latency = Histogram("serving_latency_miss")
        stats = self.tier.stats
        t_start = self.clock.now
        # The tier's stats are its lifetime counters: the report reads
        # deltas over this run's own requests.
        hits_start, cold_start = stats.cache_hits, stats.cold_rows
        rows = 0
        for i in range(requests):
            if on_request is not None:
                on_request(i)
            keys = self.sample()
            hits0, remote0 = stats.cache_hits, stats.remote_rows
            t0 = self.clock.now
            self.tier.lookup(keys)
            hits = stats.cache_hits - hits0
            remote = stats.remote_rows - remote0
            elapsed = 0.0
            if hits:
                elapsed += self.cost.hit_seconds(hits, self.row_bytes)
            if remote:
                elapsed += self.cost.miss_seconds(remote, self.row_bytes)
            if elapsed:
                self.clock.advance(elapsed)
            request_latency = self.clock.now - t0
            latency.observe(request_latency)
            if self.slo is not None:
                self.slo.observe_latency("serving_p99", request_latency)
            if remote == 0:
                hit_latency.observe(request_latency)
            else:
                miss_latency.observe(request_latency)
            rows += len(keys)
        return ServingReport(
            requests=requests,
            rows=rows,
            sim_seconds=self.clock.now - t_start,
            latency=latency,
            hit_latency=hit_latency,
            miss_latency=miss_latency,
            hit_rate=(stats.cache_hits - hits_start) / rows if rows else 0.0,
            cold_rows=stats.cold_rows - cold_start,
        )


@dataclass
class SoakVerdict:
    """Consistency audit of a train-while-serve soak."""

    requests: int
    rows_audited: int
    torn_rows: int
    stale_rows: int
    max_staleness: int
    checkpoints: int
    kills: int
    report: ServingReport | None = None
    served_through_kill: bool = False
    snapshots_seen: list[int] = field(default_factory=list)


class TrainServeSoak:
    """Serve reads while training mutates the same cluster.

    Every :data:`SOAK_TRAIN_EVERY` requests one training step (pull +
    push of :data:`SOAK_TRAIN_KEYS` rows) lands on the backend; every
    :data:`SOAK_CHECKPOINT_EVERY` training steps a barrier checkpoint
    completes and the soak snapshots a *reference copy* of every
    trained key's live weights at that Checkpointed Batch ID. Each
    served row is audited against the reference pinned at the row's
    reported snapshot:

    * value mismatch => **torn row** (the read mixed checkpoints);
    * row snapshot more than ``tier.staleness_bound_k`` checkpoints
      behind the newest completed => **stale row**.

    Args:
        tier: the hierarchical serving tier under test.
        train_backend: the training-facing backend (may be the same
            object as ``tier.backend``).
        driver: the closed-loop read driver.
        kill_primary_at: request index at which to kill the primary of
            shard :data:`SOAK_KILL_NODE`; None disables the chaos variant.
        slo: optional :class:`~repro.obs.SLOTracker`; every audited
            row records a good/bad event on the ``serving_staleness``
            objective (bad when the row's checkpoint lag exceeds the
            tier's bound), and at the end of :meth:`run` the tracker's
            ``repro_slo_*`` series are emitted on the tier's registry.
    """

    def __init__(
        self,
        tier,
        train_backend,
        driver: ServingLoadDriver,
        rng_seed: int = 0,
        kill_primary_at: int | None = None,
        slo=None,
    ):
        self.tier = tier
        self.train_backend = train_backend
        self.driver = driver
        self.slo = slo
        if slo is not None:
            slo.staleness("serving_staleness", tier.staleness_bound_k)
        self.rng = np.random.default_rng(rng_seed)
        self.kill_primary_at = kill_primary_at
        self.dim = tier.backend.server_config.embedding_dim
        #: Checkpointed Batch ID -> {key: weights at that checkpoint}.
        self.references: dict[int, dict[int, np.ndarray]] = {}
        # Continue the backend's batch sequence: starting below its
        # watermark would make the soak's barriers resolve to an
        # already-completed checkpoint, whose reference must not be
        # re-recorded from now-mutated live state.
        self._batch = train_backend.latest_completed_batch + 1
        self._steps = 0
        self._kills = 0
        self._served_after_kill = 0

    # -- training interleave -------------------------------------------

    def _train_step(self) -> None:
        n = SOAK_TRAIN_KEYS
        num_keys = self.driver.num_keys or 1 << 20
        keys = self.rng.integers(0, num_keys, size=n)
        grads = self.rng.normal(0, 0.01, size=(n, self.dim)).astype(np.float32)
        backend = self.train_backend
        backend.pull(keys, self._batch)
        backend.maintain(self._batch)
        backend.push(keys, grads, self._batch)
        self._steps += 1
        if self._steps % SOAK_CHECKPOINT_EVERY == 0:
            before = backend.checkpoints_completed
            snapshot_id = backend.barrier_checkpoint()
            # Record only a NEWLY completed checkpoint: a barrier that
            # resolves to an existing pin (nothing new to flush) must
            # not overwrite that pin's reference with later live state.
            if backend.checkpoints_completed > before:
                self._record_reference(snapshot_id)
        self._batch += 1

    def _record_reference(self, snapshot_id: int) -> None:
        # The live state right after a barrier IS the checkpointed
        # state (the barrier flushes bitwise); keep a deep copy per pin.
        state = self.train_backend.state_snapshot()
        self.references[snapshot_id] = {
            int(k): np.array(v, copy=True) for k, v in state.items()
        }
        # Bound memory: the audit only ever needs the serving tier's
        # staleness window.
        keep = sorted(self.references)[-(self.tier.staleness_bound_k + 2):]
        self.references = {s: self.references[s] for s in keep}

    def _on_request(self, i: int) -> None:
        if self.kill_primary_at is not None and i == self.kill_primary_at:
            node = self.train_backend.nodes[SOAK_KILL_NODE]
            kill = getattr(node, "kill_primary", None)
            if kill is not None:
                kill()
                self._kills += 1
        if i % SOAK_TRAIN_EVERY == 0:
            # Chaos mode stops training at the kill (a real deployment
            # fails the trainer over separately); reads keep flowing.
            if self._kills == 0:
                self._train_step()

    # -- the audited read loop -----------------------------------------

    def run(self, requests: int) -> SoakVerdict:
        # Seed at least one checkpoint so serving has a pin.
        self._train_step()
        while not self.references:
            self._train_step()
        torn = stale = audited = 0
        max_staleness = 0
        snapshots_seen: set[int] = set()
        original_lookup = self.tier.lookup

        def audited_lookup(keys, snapshot_id=None):
            nonlocal torn, stale, audited, max_staleness
            result = original_lookup(keys, snapshot_id)
            newest = max(self.references)
            for j, key in enumerate(keys):
                pin = int(result.row_snapshots[j])
                snapshots_seen.add(pin)
                lag = sum(1 for s in self.references if pin < s <= newest)
                max_staleness = max(max_staleness, lag)
                over_bound = lag > self.tier.staleness_bound_k
                if over_bound:
                    stale += 1
                if self.slo is not None:
                    self.slo.record(
                        "serving_staleness",
                        good=0 if over_bound else 1,
                        bad=1 if over_bound else 0,
                    )
                reference = self.references.get(pin)
                if reference is None:
                    continue  # pin older than the audit window
                audited += 1
                expected = reference.get(int(key))
                if expected is None:
                    expected = self._cold_reference(int(key))
                if not np.array_equal(result.weights[j], expected):
                    torn += 1
            if self._kills:
                self._served_after_kill += 1
            return result

        self.tier.lookup = audited_lookup
        try:
            report = self.driver.run(requests, on_request=self._on_request)
        finally:
            self.tier.lookup = original_lookup
        if self.slo is not None and self.tier.registry is not None:
            self.slo.emit_metrics(self.tier.registry)
        return SoakVerdict(
            requests=requests,
            rows_audited=audited,
            torn_rows=torn,
            stale_rows=stale,
            max_staleness=max_staleness,
            checkpoints=len(snapshots_seen),
            kills=self._kills,
            report=report,
            served_through_kill=self._kills > 0 and self._served_after_kill > 0,
            snapshots_seen=sorted(snapshots_seen),
        )

    def _cold_reference(self, key: int) -> np.ndarray:
        cfg = self.tier.backend.server_config
        return key_seeded_rows(cfg.seed, [key], cfg.initializer_scale, self.dim)[0]
