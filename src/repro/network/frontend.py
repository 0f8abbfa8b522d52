"""Remote PS frontend: :class:`RemotePSClient`, the cluster over RPC.

The client *is* an :class:`~repro.core.server.OpenEmbeddingServer`:
routing, request-order gather, cluster-wide checkpoints, retention
barriers, the ring commit, resharding and failover policy are
inherited, not restated. What this module adds is how one shard is
reached — every per-shard ``pull`` / ``push`` / ``lookup`` /
``maintain`` / checkpoint request, every migrated entry block and every
heartbeat or promotion round-trips through encoded bytes on a simulated
link (a faithful stand-in for the paper's TensorFlow-operator <-> PS
RPC) — plus the bookkeeping that only
exists on the wire: one :class:`~repro.network.service.PSNodeService`
and :class:`~repro.network.rpc.RpcChannel` per shard, failover-aware
re-issue, and the wire statistics. Tests assert the trained weights are
identical to the in-process path.

Fault tolerance: pass a :class:`~repro.config.NetworkFaultConfig` and
the client's channels ride a
:class:`~repro.failure.network_faults.FaultyLink` — dropped, delayed,
duplicated and corrupted frames are retried transparently. Pushes are
non-idempotent, so each carries a ``(worker_id, seq)`` header and the
service keeps a dedup window: a retried push whose first copy actually
applied is absorbed, never double-applied. Retries and dedup are
therefore *semantics-free* — trained weights are bit-identical to a
clean wire.
"""

from __future__ import annotations

import numpy as np

from repro.config import CacheConfig, NetworkFaultConfig, RetryConfig, ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.failover import FailoverManager, NodeState
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSOptimizer
from repro.core.replication import FAILOVER_SECONDS, ReplicatedPSNode
from repro.core.server import OpenEmbeddingServer
from repro.core.serving_backend import LookupResult
from repro.errors import NodeDeadError, RpcTimeoutError, ShardRoutingError
from repro.failure.network_faults import FaultyLink, LinkFaultStats
from repro.network.messages import (
    ANONYMOUS_SEQ_BASE,
    CheckpointRequest,
    HeartbeatRequest,
    LookupRequest,
    MaintainRequest,
    MigrateRequest,
    PromoteRequest,
    PullRequest,
    PushRequest,
    mirror,
)
from repro.network.rpc import RpcChannel
from repro.network.service import PSNodeService
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pmem.space import NO_ENTRIES, EntryBlock
from repro.simulation.clock import SimClock
from repro.simulation.metrics import RpcReliabilityStats
from repro.simulation.network import NetworkModel

PROBE_CHANNEL_BASE = 1000
"""Probe channels get ``PROBE_CHANNEL_BASE + node_id`` identities so
their RPC spans/metrics never collide with the data-plane channels."""

PROBE_RETRY = RetryConfig(
    max_attempts=3,
    attempt_timeout_s=0.05,
    call_timeout_s=0.5,
    base_backoff_s=1e-3,
    max_backoff_s=0.02,
    jitter=0.0,
)
"""Short-fused policy for heartbeats and promotions.

A probe exists to *measure* liveness, so it must not hide death behind
a long retry ladder: three quick attempts, then the prober reports the
silence to the failure detector and lets the lease decide.
"""


class RemotePSClient(OpenEmbeddingServer):
    """Sharded PS access over RPC channels, one per node.

    An :class:`OpenEmbeddingServer` whose per-shard calls are framed
    RPCs — the five training calls, a reshard's export / ingest / drop
    and a failover's probe / promote (so it implements
    :class:`~repro.core.backend.TrainBackend` and
    :class:`~repro.core.backend.ReadBackend` by inheritance).
    ``client.nodes`` are the real shard objects — the PS processes this
    client talks to; barriers that are not data-plane traffic
    (``complete_pending_checkpoints``, ``flush_aggregation``, the
    watermark properties) act on them directly, as on the in-process
    facade. ``maintain`` sends a :class:`MaintainRequest` trigger per
    shard — the work runs node-side (the maintainer threads live in the
    PS process) but the round's counters travel back over the wire, so
    remote and in-process backends report identical
    ``list[MaintainResult]``.

    Args:
        retry: channel retry/timeout policy (defaults applied when
            None).
        faults: when given, all channels share one seeded
            :class:`FaultyLink` over ``network``.
        worker_id: this client's identity in push dedup headers.
        tracer: span sink shared by every channel (client-side
            call/attempt/backoff spans), every node service (handler
            spans) and every node's cache.
        registry: when given, channels observe per-kind RPC round-trip
            latency histograms into it.
        node_tracers: optional per-node span sinks, indexed by node id.
            When given, each node's service handlers and cache write to
            *its own* tracer — one Chrome trace per node, mergeable
            into a causally-linked multi-process timeline via
            :mod:`repro.obs.merge`. Nodes beyond the list (elastic
            growth) fall back to the shared ``tracer``.
        recorder: optional
            :class:`~repro.obs.flightrec.FlightRecorder`; picked up by
            :meth:`enable_failover` and the shard migrator so failure
            windows are dumped automatically.
    """

    def __init__(
        self,
        server_config: ServerConfig | None = None,
        cache_config: CacheConfig | None = None,
        optimizer: PSOptimizer | None = None,
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
        retry: RetryConfig | None = None,
        faults: NetworkFaultConfig | None = None,
        worker_id: int = 0,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        node_tracers: list[Tracer] | None = None,
        recorder=None,
    ):
        # The shards are built by the base constructor, through
        # _node_tracer — so per-node tracing is the one thing set first.
        self.node_tracers = node_tracers
        super().__init__(server_config, cache_config, optimizer, tracer=tracer)
        self.retry = retry
        self.clock = clock or SimClock()
        self.worker_id = worker_id
        self.recorder = recorder
        self.registry = registry
        self._op_seq = 0
        network = network or NetworkModel()
        self.link = (
            FaultyLink(network, faults)
            if faults is not None and faults.any_faults
            else network
        )
        members = [self._connect(node) for node in self.nodes]
        self.services = [service for service, __ in members]
        self.channels = [channel for __, channel in members]
        self._push_seq = 0
        self._migrate_seq = 0
        self._pending_members: dict[int, tuple[PSNodeService, RpcChannel]] = {}
        self._probe_channels: dict[int, RpcChannel] = {}
        self.failover: FailoverManager | None = None

    def _node_tracer(self, node_id: int) -> Tracer:
        """The span sink for one node: its own tracer when per-node
        tracing is on, else the shared one."""
        if self.node_tracers is not None and 0 <= node_id < len(self.node_tracers):
            return self.node_tracers[node_id]
        return self.tracer

    def _connect(
        self, node: PSNode | ReplicatedPSNode
    ) -> tuple[PSNodeService, RpcChannel]:
        """Put ``node`` behind a service and open this client's channel
        to it (the channel id is the node id)."""
        service = PSNodeService(node, tracer=self._node_tracer(node.node_id))
        channel = RpcChannel(
            service.server,
            self.link,
            self.clock,
            retry=self.retry,
            channel_id=node.node_id,
            tracer=self.tracer,
            registry=self.registry,
        )
        return service, channel

    # ------------------------------------------------------------------
    # failure detection + hot failover
    # ------------------------------------------------------------------

    def enable_failover(
        self,
        registry: MetricsRegistry | None = None,
        recorder=None,
    ) -> FailoverManager:
        """Arm lease-based failure detection and client-driven promotion.

        Builds a :class:`~repro.core.failover.FailoverManager` over this
        client and hooks every data channel's ``node_dead`` callback
        into the detector's lease table: once a lease expired and the
        node was declared dead, in-flight calls fail *fast* with
        :class:`~repro.errors.NodeDeadError` instead of burning their
        whole retry budget against a corpse. Data-plane calls then
        reroute through :meth:`_ha_call`.
        """
        manager = FailoverManager(
            self,
            self.clock,
            registry=registry if registry is not None else self.registry,
            tracer=self.tracer,
            recorder=recorder if recorder is not None else self.recorder,
        )
        self.failover = manager
        self._arm_channel_death_checks()
        return manager

    def _arm_channel_death_checks(self) -> None:
        if self.failover is None:
            return
        detector = self.failover.detector
        for channel in self.channels:
            node_id = channel.channel_id
            channel.node_dead = (
                lambda nid=node_id: detector.state_of(nid) is NodeState.DEAD
            )

    def channel_for(self, node_id: int) -> RpcChannel:
        """The RPC channel reaching ``node_id`` — including a node that
        is being provisioned by an in-flight scale-out."""
        pending = self._pending_members.get(node_id)
        if pending is not None:
            return pending[1]
        for channel in self.channels:
            if channel.channel_id == node_id:
                return channel
        raise ShardRoutingError(f"no channel for node {node_id}")

    def probe_channel(self, node_id: int) -> RpcChannel:
        """The (lazily built) heartbeat / promotion channel to ``node_id``.

        It shares the client's — possibly faulty — link under
        :data:`PROBE_RETRY`, and deliberately has **no** ``node_dead``
        callback: it must keep reaching a node the detector already
        declared dead — that is how an idempotent promotion (or a
        false-positive recheck) gets through.
        """
        channel = self._probe_channels.get(node_id)
        if channel is None:
            channel = self._probe_channels[node_id] = RpcChannel(
                self.channel_for(node_id).server,
                self.link,
                self.clock,
                retry=PROBE_RETRY,
                channel_id=PROBE_CHANNEL_BASE + node_id,
                tracer=self.tracer,
                registry=self.registry,
            )
        return channel

    def _ha_call(self, channel: RpcChannel, request, concurrent_flows: int = 1):
        """One data-plane RPC with failover-aware rerouting.

        Without a manager this is a plain ``channel.call``. With one, a
        silent shard (``RpcTimeoutError`` after the retry budget, or a
        fast-fail ``NodeDeadError`` from the channel's death check) is
        reported to :meth:`FailoverManager.handle_timeout`: the manager
        re-probes, waits out the lease on the shared clock, declares the
        node dead and promotes its backup — after which the *same*
        request (same ``(worker_id, seq)`` identity) is re-issued, so
        the service dedup window keeps retried mutations exactly-once
        across the promotion. A double fault surfaces as
        :class:`~repro.errors.FailoverError` for checkpoint recovery.

        Tracing: the whole operation shares one trace id across every
        re-issue, so the merged trace shows the timed-out attempts
        against the dead primary, the promotion, and the re-routed
        attempt that finally landed as *one* causal story.
        """
        trace_id = self._next_trace_id()
        attempts = 0
        while True:
            try:
                return channel.call(
                    request, concurrent_flows=concurrent_flows, trace_id=trace_id
                )
            except (RpcTimeoutError, NodeDeadError):
                attempts += 1
                if self.failover is None or attempts > 3:
                    raise
                self.failover.handle_timeout(channel.channel_id)

    def _next_trace_id(self) -> int | None:
        """Deterministic per-operation trace id (no wall clock, no RNG):
        high bits identify the worker, low bits count its operations."""
        if not self.tracer.enabled:
            return None
        self._op_seq += 1
        return ((self.worker_id + 1) << 40) | self._op_seq

    # ------------------------------------------------------------------
    # PS protocol over the wire: how one shard is reached
    # ------------------------------------------------------------------

    def _shard_pull(
        self, index: int, keys, batch_id: int, worker_id, progress, flows: int
    ) -> PullResult:
        """One shard's pull as a :class:`PullRequest` round-trip.

        The shard's cache statistics travel back in the
        :class:`~repro.network.messages.PullResponse`. ``worker_id`` /
        ``progress`` ride the request frame for the server-side
        bounded-staleness admission check (``-1`` on the wire =
        anonymous); a rejection arrives back as a typed
        :class:`~repro.errors.StalenessError`.
        """
        response = self._ha_call(
            self.channels[index],
            PullRequest(
                batch_id=batch_id,
                keys=np.asarray(keys),
                worker_id=-1 if worker_id is None else int(worker_id),
                progress=-1 if progress is None else int(progress),
            ),
            concurrent_flows=flows,
        )
        return mirror(PullResult, response)

    def _shard_lookup(
        self, index: int, keys, snapshot_id: int, replica: int | None, flows: int
    ) -> LookupResult:
        """One shard's snapshot-pinned read as a :class:`LookupRequest`.

        Every shard of one lookup receives the same pinned Checkpointed
        Batch ID, so a multi-shard read is consistent even while
        training pushes land between the RPCs; ``replica`` picks the
        serving replica of a replicated shard. A shard whose primary
        died answers with silence and the read reroutes through
        :meth:`_ha_call` — the re-issued request is idempotent, so no
        dedup identity is needed.
        """
        response = self._ha_call(
            self.channels[index],
            LookupRequest(
                snapshot_id=snapshot_id,
                keys=np.asarray(keys),
                replica=replica or 0,
            ),
            concurrent_flows=flows,
        )
        return mirror(LookupResult, response)

    def _shard_maintain(self, index: int, batch_id: int) -> MaintainResult:
        """Trigger one shard's maintenance round; the round's counters
        come back in the :class:`~repro.network.messages.MaintainResponse`."""
        response = self._ha_call(
            self.channels[index], MaintainRequest(batch_id=batch_id)
        )
        return mirror(MaintainResult, response)

    def _shard_push(
        self, index: int, keys, grads, batch_id: int, worker_id, seq: int, flows: int
    ) -> int:
        """One shard's push as a :class:`PushRequest` round-trip.

        By default the RPC carries this client's ``worker_id`` and a
        fresh auto-incremented ``seq`` above
        :data:`~repro.network.messages.ANONYMOUS_SEQ_BASE` (the
        wire-retry dedup identity, disjoint from every explicit one).
        An async trainer simulating several logical workers over one
        client passes explicit ``worker_id``/``seq`` overrides so the
        server-side aggregation buffer attributes contributions to the
        right worker — and so an *intentionally duplicated* push reuses
        its seq and is absorbed exactly-once everywhere.
        """
        if worker_id is None:
            self._push_seq += 1
            worker_id, seq = self.worker_id, ANONYMOUS_SEQ_BASE | self._push_seq
        return self._ha_call(
            self.channels[index],
            PushRequest(
                batch_id=batch_id,
                keys=np.asarray(keys),
                grads=grads,
                worker_id=int(worker_id),
                seq=int(seq),
            ),
            concurrent_flows=flows,
        ).value

    def _shard_request_checkpoint(self, index: int, batch_id: int) -> None:
        """Queue a checkpoint on one shard over the wire.

        On an untrained cluster the derived batch id is ``-1``; the
        shard rejects it with a typed
        :class:`~repro.errors.CheckpointError` through the error-coded
        response path (regression: this used to escape the dispatcher
        as a raw in-process exception).
        """
        self._ha_call(self.channels[index], CheckpointRequest(batch_id=batch_id))

    # ------------------------------------------------------------------
    # the control plane over the wire: reshard and failover
    # ------------------------------------------------------------------

    def _shard_export(self, node, keys) -> EntryBlock:
        if not len(keys):
            return NO_ENTRIES
        return self._migrate(node, MigrateRequest.OP_EXPORT, keys=keys).entries

    def _shard_ingest(self, node, block: EntryBlock) -> int:
        if not len(block):
            return 0
        return self._migrate(
            node, MigrateRequest.OP_PUT, width=block.rows.shape[1], entries=block
        ).value

    def _shard_drop(self, node, keys) -> int:
        if not len(keys):
            return 0
        return self._migrate(node, MigrateRequest.OP_DELETE, keys=keys).value

    def _migrate(self, node, op: int, **payload):
        """One migration RPC under a fresh ``(source, seq)`` dedup
        identity. A rejection never comes back as a value: the channel
        raises the typed error for every non-OK status."""
        self._migrate_seq += 1
        return self.channel_for(node.node_id).call(
            MigrateRequest(
                op=op, source=self.worker_id, seq=self._migrate_seq, **payload
            )
        )

    def _shard_probe(self, index: int) -> bool:
        """One :class:`HeartbeatRequest` round-trip; ``False`` means
        *silence*, which the detector converts into lease expiry, never
        directly into death."""
        try:
            return self.probe_channel(index).call(HeartbeatRequest(node_id=index)).ok
        except RpcTimeoutError:
            return False

    def _shard_promote(self, index: int) -> float:
        """A :class:`PromoteRequest`; a double fault's
        :class:`~repro.errors.FailoverError` crosses the wire as
        ``ERR_FAILOVER`` and is raised here, typed."""
        self.probe_channel(index).call(PromoteRequest(node_id=index))
        return FAILOVER_SECONDS

    def provision_node(self, node_id: int, server_config: ServerConfig) -> PSNode:
        """Build the node + service + channel for a joining shard.

        The artifacts stay in a pending set (reachable via
        :meth:`channel_for`) until :meth:`commit_ring` adds them to the
        membership — a crash before commit discards them with the
        uncommitted migration.
        """
        node = super().provision_node(node_id, server_config)
        self._pending_members[node_id] = self._connect(node)
        return node

    def commit_ring(self, server_config: ServerConfig, nodes: list[PSNode]) -> int:
        """Commit the new ring epoch (the inherited root-field write is
        the commit point), then bring the wire membership — services,
        channels, lease table — in line with the committed node list.
        Probe channels are keyed by node id, and a scale-in then a
        scale-out reuses an id for a new node: they are dropped here and
        rebuilt on first use."""
        new_epoch = super().commit_ring(server_config, nodes)
        by_id = {
            service.node.node_id: (service, channel)
            for service, channel in zip(self.services, self.channels)
        }
        by_id.update(self._pending_members)
        self.services = [by_id[node.node_id][0] for node in nodes]
        self.channels = [by_id[node.node_id][1] for node in nodes]
        self._pending_members = {}
        self._probe_channels = {}
        if self.failover is not None:
            # New members enter the lease table before a channel death
            # check asks about them; the checks re-arm over the
            # post-commit membership.
            self.failover.watch_members()
            self._arm_channel_death_checks()
        return new_epoch

    # ------------------------------------------------------------------
    # wire statistics
    # ------------------------------------------------------------------

    def wire_bytes(self) -> int:
        """Total request+response bytes moved over all channels.

        Counts both successful and failed exchanges — a request whose
        reply was lost still crossed the wire.
        """
        return sum(channel.stats.total_bytes for channel in self.channels)

    def reliability(self) -> RpcReliabilityStats:
        """Aggregate retry/timeout/dedup counters across the client.

        Channel-side: retries, timeouts, wire errors and backoff time.
        Server-side: dedup-window suppressions. Link-side: total
        injected faults (zero on a perfect wire).
        """
        total = RpcReliabilityStats()
        for channel in self.channels:
            total.retries += channel.stats.retries
            total.timeouts += channel.stats.timeouts
            total.wire_errors += channel.stats.wire_errors
            total.backoff_seconds += channel.stats.backoff_seconds
        total.dup_suppressed = sum(
            service.dup_suppressed for service in self.services
        )
        total.faults_injected = self.fault_stats().total
        return total

    def fault_stats(self) -> LinkFaultStats:
        """Injected-fault counters (all zero when no faults configured)."""
        if isinstance(self.link, FaultyLink):
            return self.link.stats
        return LinkFaultStats()

    def collect_metrics(self, registry: MetricsRegistry) -> None:
        """The inherited per-node series plus the client's aggregated
        reliability counters under ``{"node": "client"}`` (channel
        retries/backoff are a client-side cost, not a shard's)."""
        super().collect_metrics(registry)
        rel = self.reliability()
        labels = {"node": "client"}
        for name, value in (
            ("repro_rpc_retries_total", rel.retries),
            ("repro_rpc_timeouts_total", rel.timeouts),
            ("repro_rpc_wire_errors_total", rel.wire_errors),
            ("repro_rpc_dup_suppressed_total", rel.dup_suppressed),
            ("repro_rpc_backoff_seconds_total", rel.backoff_seconds),
            ("repro_rpc_faults_injected_total", rel.faults_injected),
        ):
            if value:
                registry.counter(name, labels).add(value)
