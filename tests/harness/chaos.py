"""MTTF-driven chaos soak over the hot-failover stack.

Where :mod:`tests.harness.crashpoints` kills the *whole cluster* at a
labelled migration step, this harness kills *individual PS primaries*
at Poisson-distributed instants of simulated time
(:class:`~repro.failure.injection.NodeKillSchedule`) while a
deterministic training workload runs, and lets the availability layer
answer:

* a :class:`~repro.core.failover.FailoverManager` detects each death by
  lease expiry and promotes the shard's synchronous backup
  (:class:`~repro.core.replication.ReplicatedPSNode`);
* over RPC the detection is *client-driven*: the dead shard simply goes
  silent, the worker's call times out (or fast-fails with
  :class:`~repro.errors.NodeDeadError` once the lease verdict is in),
  ``RemotePSClient._ha_call`` reports the timeout and re-issues the
  SAME request after promotion — the service dedup window keeps retried
  pushes exactly-once across the failover;
* a *double fault* (the backup dies before re-replication finishes)
  falls back to the paper's answer — checkpoint recovery — and the lost
  batches are replayed from the deterministic payload stream.

The soak's verdict is the same bitwise bar the crash-point sweep sets:
after K kills the final weights must equal an unsharded fault-free
replay exactly, the Checkpointed Batch ID trail must be monotone, and
every promotion's unavailability must sit under the lease-derived
bound.

One harness drives all three transports (in-process, RPC, RPC over a
lossy :class:`~repro.network.netsim.FaultyLink`) so the kill schedule,
workload, and assertions are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ServerConfig
from repro.core.failover import FailoverManager, PromotionReport
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.errors import FailoverError
from repro.failure.injection import NodeKillInjector, NodeKillSchedule
from repro.network.frontend import RemotePSClient
from repro.obs.flightrec import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.simulation.clock import SimClock

from tests.harness.crashpoints import (
    DIM,
    FAULTS,
    RETRY,
    RING_VNODES,
    batch_payload,
    cache_config,
    reference_state,
)

#: Probe-channel call budget absorbed into the unavailability bound for
#: RPC transports (the re-probe inside ``handle_timeout`` costs wire
#: time before the lease wait starts).
PROBE_BUDGET_S = 0.5


def replicated_config(
    num_nodes: int, seed: int, lease_s: float
) -> ServerConfig:
    """Ring-partitioned cluster with hot replicas and the given lease."""
    return ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        partitioner="ring",
        ring_vnodes=RING_VNODES,
        seed=seed,
        replicas=2,
        lease_s=lease_s,
    )


@dataclass
class SoakResult:
    """Everything one chaos soak observed, for assertions."""

    kills: int
    promotions: list[PromotionReport]
    double_faults: int
    recoveries: int
    #: ``global_completed_checkpoint`` after every batch (including the
    #: replays after a double-fault recovery) — must be non-decreasing.
    checkpoint_trail: list[int]
    final_state: dict[int, np.ndarray]
    reference: dict[int, np.ndarray]
    #: Promised per-promotion ceiling (lease + probe budget + failover).
    unavailability_bound_s: float
    backend: object
    registry: MetricsRegistry
    rebuilds_completed: int = 0
    unavailability_seconds: list[float] = field(default_factory=list)
    #: Kills that landed on a primary that was already dead (the shard
    #: was between death and promotion) — answered by the promotion the
    #: earlier kill triggered, not by one of their own.
    absorbed_kills: int = 0
    #: The soak's flight recorder: dumps were taken at every
    #: declare-dead / promotion / double-fault, and a failed audit
    #: snapshots it into a postmortem artifact.
    recorder: FlightRecorder | None = None


class ChaosSoak:
    """One soak run: workload + kill schedule + failover + assertions.

    The loop polls the kill injector at *operation boundaries inside a
    batch* (before the batch and between pull and push), so a kill lands
    mid-batch and the in-flight push must survive the promotion without
    being lost or double-applied.

    Transport semantics differ deliberately:

    * ``remote``: kills are silent. The client discovers each death
      through an unanswered call and drives promotion itself — the
      tentpole's client-driven path.
    * local (in-process): there is no wire; the "client" and the server
      share a process, so the soak reacts to a kill by immediately
      reporting the timeout (``handle_timeout``), which still pays the
      full lease wait on the shared clock before promoting.

    A double fault from either path crashes the surviving pools and
    recovers in-process (checkpoint recovery does not care which shell
    served the shards); training resumes at the recovered Checkpointed
    Batch ID and replays the lost batches from the deterministic
    payload stream.
    """

    def __init__(
        self,
        *,
        remote: bool = False,
        faulty: bool = False,
        seed: int = 0,
        nodes: int = 3,
        kills: int = 3,
        batches: int = 30,
        checkpoint_every: int = 3,
        lease_s: float = 0.5,
        mttf_s: float = 4.0,
        batch_seconds: float = 1.0,
        schedule: NodeKillSchedule | None = None,
    ):
        if faulty and not remote:
            raise ValueError("fault injection needs the remote backend")
        self.seed = seed
        self.batches = batches
        self.checkpoint_every = checkpoint_every
        self.batch_seconds = batch_seconds
        self.config = replicated_config(nodes, seed, lease_s)
        self.registry = MetricsRegistry()
        self.clock = SimClock()
        self.remote = remote
        self.recorder = FlightRecorder(node="soak", clock=self.clock)
        if remote:
            backend = RemotePSClient(
                self.config,
                cache_config(),
                PSAdagrad(lr=0.05),
                clock=self.clock,
                faults=FAULTS if faulty else None,
                retry=RETRY,
                registry=self.registry,
                recorder=self.recorder,
            )
            manager = backend.enable_failover(self.registry)
            self.local_mode = False
            self.probe_budget_s = PROBE_BUDGET_S
        else:
            backend = OpenEmbeddingServer(
                self.config, cache_config(), PSAdagrad(lr=0.05)
            )
            manager = FailoverManager(
                backend,
                self.clock,
                registry=self.registry,
                recorder=self.recorder,
            )
            self.local_mode = True
            self.probe_budget_s = 0.0
        self.backend = backend
        self.manager = manager
        if schedule is None:
            horizon = max(batches * batch_seconds * 4.0, mttf_s * (kills + 2))
            schedule = NodeKillSchedule.poisson(
                mttf_s, horizon, nodes, seed=seed, max_kills=kills
            )
        self.injector = NodeKillInjector(schedule)
        self.trail: list[int] = []
        self.kills_fired = 0
        self.recoveries = 0
        self.double_faults = 0
        self.absorbed_kills = 0
        self._promotions: list[PromotionReport] = []

    # ------------------------------------------------------------------
    # chaos plumbing
    # ------------------------------------------------------------------

    def _node_by_id(self, node_id: int):
        for node in self.backend.nodes:
            if node.node_id == node_id:
                return node
        raise LookupError(f"no node {node_id}")

    def _poll_kills(self) -> None:
        """Fire every kill that is due at the current simulated instant.

        Remote mode stops here: the primary is dead, the shard is
        silent, and the client must notice on its own. Local mode reacts
        immediately (same process — the very next call would observe the
        death), which still pays the lease wait before promotion.
        """
        fired = self.injector.due(self.clock.now)
        for __, victim in fired:
            node = self._node_by_id(victim)
            if not getattr(node, "primary_alive", True):
                self.absorbed_kills += 1
                continue
            kill = getattr(node, "kill_primary", None)
            if kill is not None:
                kill()
        self.kills_fired += len(fired)
        if self.local_mode and fired:
            self._ensure_alive()

    def _ensure_alive(self) -> None:
        """Promote every dead primary (raises FailoverError on a double
        fault — the caller falls back to checkpoint recovery)."""
        for node in list(self.backend.nodes):
            if not getattr(node, "primary_alive", True):
                self.manager.handle_timeout(node.node_id)

    def _recover_from_double_fault(self) -> None:
        """The paper's path: crash the survivors, rebuild from PMem.

        ``OpenEmbeddingServer.recover`` restores every shard to the
        newest globally-completed checkpoint and — because
        ``replicas=2`` — re-wraps each as a freshly re-replicated pair,
        so the recovered cluster regains single-fault tolerance before
        serving. The soak continues in-process afterwards (checkpoint
        recovery is transport-agnostic; state equivalence is what the
        soak asserts).
        """
        self.double_faults += 1
        self.recoveries += 1
        self._promotions.extend(self.manager.promotions)
        pools = [node.crash() for node in self.backend.nodes]
        server, __ = OpenEmbeddingServer.recover(
            pools, self.config, cache_config(), PSAdagrad(lr=0.05)
        )
        self.backend = server
        self.manager = FailoverManager(
            server,
            self.clock,
            registry=self.registry,
            recorder=self.recorder,
        )
        self.local_mode = True
        self.probe_budget_s = max(self.probe_budget_s, 0.0)
        self.trail.append(server.global_completed_checkpoint)

    # ------------------------------------------------------------------
    # the soak loop
    # ------------------------------------------------------------------

    def _run_one_batch(self, batch: int) -> None:
        self._poll_kills()
        self.manager.beat()
        keys, grads = batch_payload(self.seed, batch)
        self.backend.pull(keys, batch)
        # Mid-batch kill point: the pull landed, the push has not — a
        # promotion here must serve the push from the backup's mirror of
        # the pull's effects.
        self._poll_kills()
        self.backend.maintain(batch)
        self.backend.push(keys, grads, batch)
        if (batch + 1) % self.checkpoint_every == 0:
            # The checkpoint barrier touches every shard through
            # non-HA surfaces too; promote any still-undetected corpse
            # first so the barrier only ever sees serving primaries.
            self._ensure_alive()
            self.backend.barrier_checkpoint(batch)
        self.trail.append(self.backend.global_completed_checkpoint)
        self.clock.advance(self.batch_seconds)

    def run(self) -> SoakResult:
        batch = 0
        while batch < self.batches:
            try:
                self._run_one_batch(batch)
            except FailoverError:
                self._recover_from_double_fault()
                # Resume at the recovered Checkpointed Batch ID; the
                # deterministic payloads replay the lost work exactly.
                batch = self.backend.global_completed_checkpoint + 1
                continue
            batch += 1
        # Flush any kill scheduled before the horizon but after the last
        # batch boundary would have observed it.
        try:
            self._ensure_alive()
        except FailoverError:
            self._recover_from_double_fault()
            for replay in range(
                self.backend.global_completed_checkpoint + 1, self.batches
            ):
                self._run_one_batch(replay)
        if self.backend.global_completed_checkpoint < self.batches - 1:
            self.backend.barrier_checkpoint(self.batches - 1)
        self.trail.append(self.backend.global_completed_checkpoint)
        promotions = self._promotions + self.manager.promotions
        return SoakResult(
            kills=self.kills_fired,
            promotions=promotions,
            double_faults=self.double_faults,
            recoveries=self.recoveries,
            checkpoint_trail=self.trail,
            final_state=self.backend.state_snapshot(),
            reference=reference_state(self.seed, self.batches),
            unavailability_bound_s=self.manager.unavailability_bound_s(
                self.probe_budget_s
            ),
            backend=self.backend,
            registry=self.registry,
            rebuilds_completed=sum(
                1
                for node in self.backend.nodes
                if getattr(node, "backup", None) is not None
            ),
            unavailability_seconds=[
                p.unavailability_seconds for p in promotions
            ],
            absorbed_kills=self.absorbed_kills,
            recorder=self.recorder,
        )


def run_chaos_soak(**kwargs) -> SoakResult:
    """Convenience wrapper: build a :class:`ChaosSoak` and run it."""
    return ChaosSoak(**kwargs).run()


# ----------------------------------------------------------------------
# assertions
# ----------------------------------------------------------------------


def assert_soak_survived(
    result: SoakResult, *, min_kills: int, artifact_dir=None
) -> None:
    """The chaos soak's full verdict in one call.

    Bitwise equality against the fault-free unsharded replay (no update
    lost, none double-applied, across every promotion and recovery),
    monotone Checkpointed Batch IDs, at least ``min_kills`` kills
    actually delivered, every kill answered (promotion or checkpoint
    recovery), and every promotion's unavailability under the
    lease-derived bound.

    A failed audit is not a bare assert: the soak's flight recorder is
    dumped to a postmortem JSON artifact (``artifact_dir``, default
    ``tests/artifacts/``) and the artifact path is appended to the
    assertion message — the seconds around the failure travel with the
    failure.
    """
    try:
        _audit_soak(result, min_kills=min_kills)
    except AssertionError as exc:
        path = _write_postmortem(result, str(exc), artifact_dir)
        if path is None:
            raise
        raise AssertionError(f"{exc}\npostmortem artifact: {path}") from None


def _audit_soak(result: SoakResult, *, min_kills: int) -> None:
    from tests.harness.crashpoints import (
        assert_bitwise_equal,
        assert_monotone_checkpoints,
    )

    assert result.kills >= min_kills, (
        f"schedule delivered only {result.kills} kills, wanted {min_kills}"
    )
    assert_bitwise_equal(result.final_state, result.reference)
    assert_monotone_checkpoints(result.checkpoint_trail)
    answered = (
        len(result.promotions) + result.recoveries + result.absorbed_kills
    )
    assert answered >= result.kills, (
        f"{result.kills} kills but only {answered} answered"
    )
    for seconds in result.unavailability_seconds:
        assert seconds <= result.unavailability_bound_s + 1e-9, (
            f"unavailability {seconds:.3f}s exceeds bound "
            f"{result.unavailability_bound_s:.3f}s"
        )


def _write_postmortem(result: SoakResult, reason: str, artifact_dir) -> str | None:
    """Dump the soak's flight recorder next to the failure; returns the
    artifact path (None when the soak ran without a recorder)."""
    import json
    from pathlib import Path

    if result.recorder is None:
        return None
    dump = result.recorder.dump("soak_audit_failed", reason=reason)
    artifact = {
        "reason": reason,
        "kills": result.kills,
        "promotions": len(result.promotions),
        "double_faults": result.double_faults,
        "recoveries": result.recoveries,
        "checkpoint_trail": result.checkpoint_trail,
        "unavailability_seconds": result.unavailability_seconds,
        "unavailability_bound_s": result.unavailability_bound_s,
        "flightrec": dump,
    }
    directory = Path(artifact_dir) if artifact_dir is not None else (
        Path(__file__).resolve().parent.parent / "artifacts"
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "postmortem_chaos_soak.json"
    path.write_text(json.dumps(artifact, indent=2, default=float))
    return str(path)


def percentile(values: list[float], q: float) -> float:
    """Inclusive percentile of a non-empty list (q in [0, 100])."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))
