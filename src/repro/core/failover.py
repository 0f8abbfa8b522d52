"""Lease-based failure detection and client-driven hot failover.

The paper's only failure answer is offline recovery: rescan PMem,
discard versions past the Checkpointed Batch ID, rebuild the index
(~380 s at 2.1 B entries, Section V-C / Figure 14). Production PS
systems (Kraken SC'20, Check-N-Run NSDI'22) instead detect a dead node
automatically and fail over to a hot replica in seconds. This module
supplies the detection and orchestration half of that availability
layer; :class:`~repro.core.replication.ReplicatedPSNode` supplies the
replica.

Two pieces:

* :class:`FailureDetector` — a pure, SimClock-driven lease table. Each
  watched node holds a lease of ``ServerConfig.lease_s`` seconds that a
  successful heartbeat renews. A node whose lease has expired is DEAD;
  one silent for half its lease but still inside it is SUSPECT (do
  not reroute yet — the wire may just be slow).
* :class:`FailoverManager` — the policy loop over one cluster facade
  (:class:`~repro.core.server.OpenEmbeddingServer`), reaching each
  shard through its ``_shard_probe`` / ``_shard_promote`` /
  ``_shard_rebuild_*`` hooks: node calls in process; on a
  :class:`~repro.network.frontend.RemotePSClient` the probe is a
  ``Heartbeat`` RPC on a short-retry channel and the promotion a
  ``Promote`` RPC. ``beat()`` probes every shard, renews leases and
  advances background re-replication one :data:`REBUILD_CHUNK` per
  round;
  ``handle_timeout(node)`` is the client's reaction to an unanswered
  call: re-probe, wait out the remaining lease on the shared clock
  (detection latency is therefore *bounded by the lease*), promote the
  backup, and account the whole unavailability window in
  ``repro_failover_*`` metrics and ``failover.*`` spans.

Exactly-once across promotion: the manager never re-issues requests
itself — the caller retries with the SAME ``(worker_id, seq)``, and the
service-level dedup window (logically replicated with the shard)
suppresses duplicates, so a push that reached the replicas before the
primary died is not applied twice after promotion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FailoverError, ServerError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.clock import SimClock

REBUILD_CHUNK = 64
"""Keys a degraded shard re-replicates per answered heartbeat round."""


class NodeState(enum.Enum):
    """Detector's belief about one shard."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class _Lease:
    last_beat: float
    deadline: float
    dead: bool = False


class FailureDetector:
    """A lease table over the shared simulated clock.

    Deliberately mechanism-free: it never probes anything. Callers feed
    it evidence (:meth:`heartbeat`) and ask for beliefs
    (:meth:`state_of`). Because leases live on the same
    :class:`SimClock` that prices training, detection latency shows up
    in every simulated-time measurement, exactly like retries do. A
    node silent for half its lease is suspect.
    """

    def __init__(self, clock: SimClock, lease_s: float):
        if lease_s <= 0:
            raise ServerError(f"lease_s must be positive, got {lease_s}")
        self.clock = clock
        self.lease_s = lease_s
        self._leases: dict[int, _Lease] = {}

    def watch(self, node_id: int) -> None:
        """Start tracking ``node_id`` with a fresh lease from now."""
        now = self.clock.now
        self._leases[node_id] = _Lease(now, now + self.lease_s)

    def watched(self) -> list[int]:
        return sorted(self._leases)

    def _lease(self, node_id: int) -> _Lease:
        try:
            return self._leases[node_id]
        except KeyError:
            raise ServerError(f"node {node_id} is not watched") from None

    def heartbeat(self, node_id: int) -> None:
        """Record evidence of life; renews the lease.

        A heartbeat from a node already *declared* dead is ignored —
        promotion is a one-way door (the old primary's pool is crashed);
        the slot is re-armed with :meth:`reset` after the new primary
        takes over.
        """
        lease = self._lease(node_id)
        if lease.dead:
            return
        now = self.clock.now
        lease.last_beat = now
        lease.deadline = now + self.lease_s

    def state_of(self, node_id: int) -> NodeState:
        lease = self._lease(node_id)
        if lease.dead:
            return NodeState.DEAD
        now = self.clock.now
        if now >= lease.deadline:
            return NodeState.DEAD
        if now - lease.last_beat >= self.lease_s / 2.0:
            return NodeState.SUSPECT
        return NodeState.ALIVE

    def lease_deadline(self, node_id: int) -> float:
        """Instant after which the node may be declared dead."""
        return self._lease(node_id).deadline

    def last_heartbeat(self, node_id: int) -> float:
        return self._lease(node_id).last_beat

    def declared_dead(self, node_id: int) -> bool:
        """True only after :meth:`declare_dead` committed the verdict.

        Distinct from ``state_of(...) is DEAD``: an *expired* lease
        means the node MAY be declared dead, not that it was. Fresh
        evidence of life (a successful probe) still rescues an expired
        lease; nothing rescues a declared one until :meth:`reset`.
        """
        return self._lease(node_id).dead

    def declare_dead(self, node_id: int) -> None:
        """Commit to the death verdict (no resurrection until reset).

        Raises:
            ServerError: the lease has not expired yet — declaring a
                node dead early would break the lease safety argument.
        """
        lease = self._lease(node_id)
        if not lease.dead and self.clock.now < lease.deadline:
            raise ServerError(
                f"node {node_id} lease runs to {lease.deadline:.6f}, "
                f"now is {self.clock.now:.6f}: cannot declare dead early"
            )
        lease.dead = True

    def reset(self, node_id: int) -> None:
        """Re-arm the slot after a successful promotion."""
        self.watch(node_id)

    def dead_nodes(self) -> list[int]:
        return [n for n in sorted(self._leases) if self.state_of(n) is NodeState.DEAD]


@dataclass
class PromotionReport:
    """One detection → promotion episode, fully accounted."""

    node_id: int
    #: Simulated instant the client first noticed trouble (timeout).
    noticed_at: float
    #: Seconds from last evidence of life to the death declaration.
    detection_seconds: float
    #: Seconds the promotion itself took (FAILOVER_SECONDS).
    promotion_seconds: float
    #: noticed -> serving again: the client-visible outage.
    unavailability_seconds: float
    #: The cluster's committed ring epoch at the promotion.
    committed_epoch: int


class FailoverManager:
    """Detection + promotion + re-replication policy over one cluster.

    The same manager drives the local server, the RPC client, and the
    RPC-client-over-FaultyLink — it reaches each shard through the
    cluster's ``_shard_*`` hooks, so only those differ, which is what
    lets the chaos soak run all three against one schedule. The lease
    comes from ``cluster.server_config``.
    """

    def __init__(
        self,
        cluster,
        clock: SimClock,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder=None,
    ):
        self.cluster = cluster
        self.clock = clock
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`~repro.obs.flightrec.FlightRecorder`. Every
        #: failover state transition lands in its ring, and the window
        #: is dumped on declare-dead, after a promotion, and on a
        #: double fault — the postmortem record of what the detector
        #: saw in the seconds around the outage.
        self.recorder = recorder
        self.detector = FailureDetector(clock, cluster.server_config.lease_s)
        self.watch_members()
        self.promotions: list[PromotionReport] = []
        self.double_faults = 0

    def watch_members(self) -> None:
        """Lease every member shard not watched yet. A scale-out commits
        a new member: the RPC client calls this at its commit; in process
        the next beat or timeout does."""
        watched = self.detector.watched()
        for node_id in range(len(self.cluster.nodes)):
            if node_id not in watched:
                self.detector.watch(node_id)

    # ------------------------------------------------------------------
    # periodic heartbeat round
    # ------------------------------------------------------------------

    def beat(self) -> dict[int, NodeState]:
        """Probe every shard, renew leases, advance rebuilds.

        Returns each shard's post-round state. Heartbeats ride the
        background (off the request critical path), so the round itself
        charges no clock time beyond what the probes do. A shard that
        answered advances its re-replication by one :data:`REBUILD_CHUNK` —
        once per round, here and nowhere else.
        """
        self.watch_members()
        states: dict[int, NodeState] = {}
        for node_id in range(len(self.cluster.nodes)):
            if not self.detector.declared_dead(node_id):
                # An expired-but-undeclared lease is exactly what a
                # probe is for: a live answer renews it.
                if self.cluster._shard_probe(node_id):
                    self.detector.heartbeat(node_id)
                    self._tick_rebuild(node_id)
            states[node_id] = self.detector.state_of(node_id)
        return states

    def _tick_rebuild(self, node_id: int) -> None:
        state = self.cluster._shard_rebuild_tick(node_id, REBUILD_CHUNK)
        if state == "idle":
            return
        progress = self.cluster._shard_rebuild_progress(node_id)
        if self.registry is not None:
            self.registry.gauge(
                "repro_failover_rereplication_progress",
                {"node": str(node_id)},
            ).set(progress)
            self.registry.counter(
                "repro_failover_rereplication_ticks_total",
                {"node": str(node_id)},
            ).add(1)
        if state == "done":
            self.tracer.instant(
                "failover.rereplicated", track="failure", node=node_id
            )

    # ------------------------------------------------------------------
    # the client's unanswered-call path
    # ------------------------------------------------------------------

    def handle_timeout(self, node_id: int) -> str:
        """React to an unanswered call on ``node_id``.

        Returns ``"retry"`` when a re-probe finds the node alive (the
        wire ate the message — retry the same endpoint) or
        ``"promoted"`` after a completed failover (re-issue the call
        with the same ``(worker_id, seq)``; the dedup window keeps it
        exactly-once).

        The death verdict waits out the node's lease on the shared
        clock: detection latency is bounded by ``lease_s`` plus
        whatever the caller already spent timing out, which is exactly
        the bound the chaos soak asserts on p99 unavailability.

        Raises:
            FailoverError: double fault — no backup left; fall back to
                checkpoint recovery.
        """
        noticed = self.clock.now
        self.watch_members()
        self._rec("timeout_noticed", node=node_id)
        if not self.detector.declared_dead(node_id):
            # Even an expired lease yields to fresh evidence of life —
            # the one-way door is declare_dead, not expiry.
            if self.cluster._shard_probe(node_id):
                self.detector.heartbeat(node_id)
                self._rec("probe_alive", node=node_id)
                return "retry"
            deadline = self.detector.lease_deadline(node_id)
            if self.clock.now < deadline:
                # Cannot declare death before the lease runs out — the
                # client sits out the remainder (charged!).
                self._rec("lease_wait", node=node_id, deadline=deadline)
                self.clock.advance(deadline - self.clock.now)
            self._rec("lease_expired", node=node_id, deadline=deadline)
        last_beat = self.detector.last_heartbeat(node_id)
        self.detector.declare_dead(node_id)
        detection_s = self.clock.now - last_beat
        self._rec("declared_dead", node=node_id, detection_s=detection_s)
        if self.recorder is not None:
            self.recorder.dump("declare_dead", node=node_id)
        epoch = self.cluster.ring_epoch
        with self.tracer.span(
            "failover.promote", track="failure", node=node_id, epoch=epoch
        ) as span:
            try:
                promotion_s = self.cluster._shard_promote(node_id)
            except FailoverError:
                self.double_faults += 1
                if self.registry is not None:
                    self.registry.counter(
                        "repro_failover_double_faults_total"
                    ).add(1)
                span.set(outcome="double_fault")
                self._rec("double_fault", node=node_id, epoch=epoch)
                if self.recorder is not None:
                    self.recorder.dump("double_fault", node=node_id)
                raise
            self.clock.advance(promotion_s)
            span.set(outcome="promoted", seconds=promotion_s)
        self._rec("promoted", node=node_id, seconds=promotion_s, epoch=epoch)
        self.detector.reset(node_id)
        report = PromotionReport(
            node_id=node_id,
            noticed_at=noticed,
            detection_seconds=detection_s,
            promotion_seconds=promotion_s,
            unavailability_seconds=self.clock.now - noticed,
            committed_epoch=epoch,
        )
        self.promotions.append(report)
        self._record(report)
        if self.recorder is not None:
            # This dump's window covers the whole episode: lease
            # expiry -> declare-dead -> promotion.
            self.recorder.dump(
                "promotion",
                node=node_id,
                unavailability_s=report.unavailability_seconds,
            )
        return "promoted"

    def _rec(self, name: str, **attrs) -> None:
        if self.recorder is not None:
            self.recorder.record("failover", name, **attrs)

    def _record(self, report: PromotionReport) -> None:
        if self.registry is None:
            return
        labels = {"node": str(report.node_id)}
        self.registry.counter("repro_failover_promotions_total", labels).add(1)
        self.registry.histogram(
            "repro_failover_detection_seconds"
        ).observe(report.detection_seconds)
        self.registry.histogram(
            "repro_failover_unavailability_seconds"
        ).observe(report.unavailability_seconds)

    # ------------------------------------------------------------------
    # bounds & introspection
    # ------------------------------------------------------------------

    def unavailability_bound_s(self, call_timeout_s: float = 0.0) -> float:
        """The promised ceiling on one outage window.

        noticed -> promoted is at most: the remaining lease (full
        ``lease_s`` in the worst case) + one probe round trip (absorbed
        in ``call_timeout_s`` over RPC) + the promotion cost itself. The
        chaos soak asserts p99 under this.
        """
        from repro.core.replication import FAILOVER_SECONDS

        return self.detector.lease_s + call_timeout_s + FAILOVER_SECONDS
