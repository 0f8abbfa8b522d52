"""Automatic failure detection + hot failover: unit tests and chaos soak.

Covers the whole availability layer this extension adds on top of the
paper's checkpoint-recovery story:

* :class:`~repro.core.failover.FailureDetector` lease semantics;
* :class:`~repro.core.failover.FailoverManager` promotion policy —
  including idempotent promotion on false positives and the
  double-fault fallback;
* :class:`~repro.core.replication.ReplicatedPSNode` background
  re-replication, and a promotion interleaved at every labelled
  migration step;
* the typed dead-node channel error
  (:class:`~repro.errors.NodeDeadError` vs
  :class:`~repro.errors.RpcTimeoutError`);
* the MTTF chaos soak over all three transports (in-process, RPC, RPC
  over a lossy wire) with bitwise equality against a fault-free replay;
* failover pricing in the cost model / TrainingSimulator and the Young
  checkpoint-interval planning that ``repro plan`` prints.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.config import (
    CacheConfig,
    CheckpointConfig,
    ClusterConfig,
    ConfigError,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.core.failover import REBUILD_CHUNK, FailureDetector, NodeState
from repro.core.migration import MIGRATION_STEPS
from repro.core.replication import FAILOVER_SECONDS
from repro.core.sharding import (
    RING_STATE_FIELD,
    pack_ring_state,
    unpack_ring_state,
)
from repro.errors import (
    FailoverError,
    NodeDeadError,
    RpcTimeoutError,
    ServerError,
)
from repro.failure.injection import NodeKillInjector, NodeKillSchedule
from repro.failure.mttf import (
    expected_lost_work_seconds,
    sample_failure_times,
    young_interval_seconds,
)
from repro.network.messages import (
    HeartbeatRequest,
    MaintainRequest,
    PromoteRequest,
    StatusResponse,
)
from repro.simulation.clock import SimClock
from repro.simulation.cluster import SystemKind
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

from tests.harness.scenario import (
    DIM,
    Scenario,
    assert_bitwise_equal,
    assert_exclusive_ownership,
    assert_monotone_checkpoints,
    build_backend,
    kill,
    percentile,
    poisson_kills,
    reference_state,
    reshard,
    server_config,
)

LEASE = 0.5


# ----------------------------------------------------------------------
# FailureDetector: lease semantics
# ----------------------------------------------------------------------


class TestFailureDetector:
    def make(self, lease=LEASE):
        clock = SimClock()
        return clock, FailureDetector(clock, lease)

    def test_fresh_watch_is_alive(self):
        __, det = self.make()
        det.watch(0)
        assert det.state_of(0) is NodeState.ALIVE
        assert det.watched() == [0]

    def test_suspect_between_half_lease_and_lease(self):
        clock, det = self.make()
        det.watch(0)
        clock.advance(LEASE * 0.6)
        assert det.state_of(0) is NodeState.SUSPECT

    def test_dead_after_lease_expiry(self):
        clock, det = self.make()
        det.watch(0)
        clock.advance(LEASE * 1.01)
        assert det.state_of(0) is NodeState.DEAD
        assert det.dead_nodes() == [0]

    def test_heartbeat_renews_lease(self):
        clock, det = self.make()
        det.watch(0)
        clock.advance(LEASE * 0.9)
        det.heartbeat(0)
        clock.advance(LEASE * 0.9)
        assert det.state_of(0) is not NodeState.DEAD
        assert det.lease_deadline(0) == pytest.approx(LEASE * 0.9 + LEASE)

    def test_declare_dead_early_refused(self):
        __, det = self.make()
        det.watch(0)
        with pytest.raises(ServerError, match="cannot declare dead early"):
            det.declare_dead(0)

    def test_declare_dead_after_expiry_sticks(self):
        clock, det = self.make()
        det.watch(0)
        clock.advance(LEASE * 2)
        det.declare_dead(0)
        # Post-declaration heartbeats are ignored: promotion is one-way.
        det.heartbeat(0)
        assert det.state_of(0) is NodeState.DEAD

    def test_reset_rearms_after_promotion(self):
        clock, det = self.make()
        det.watch(0)
        clock.advance(LEASE * 2)
        det.declare_dead(0)
        det.reset(0)
        assert det.state_of(0) is NodeState.ALIVE

    def test_unwatched_node_raises(self):
        __, det = self.make()
        with pytest.raises(ServerError, match="not watched"):
            det.state_of(7)

    def test_invalid_lease_rejected(self):
        clock = SimClock()
        with pytest.raises(ServerError):
            FailureDetector(clock, 0.0)


# ----------------------------------------------------------------------
# MTTF kill schedule
# ----------------------------------------------------------------------


class TestKillSchedule:
    def test_poisson_deterministic_and_sorted(self):
        a = NodeKillSchedule.poisson(5.0, 100.0, 3, seed=7)
        b = NodeKillSchedule.poisson(5.0, 100.0, 3, seed=7)
        assert a.kill_times == b.kill_times
        assert a.victims == b.victims
        assert list(a.kill_times) == sorted(a.kill_times)
        assert all(0 <= v < 3 for v in a.victims)

    def test_max_kills_caps_schedule(self):
        s = NodeKillSchedule.poisson(1.0, 100.0, 2, seed=1, max_kills=4)
        assert len(s) == 4

    def test_sample_mean_tracks_mttf(self):
        times = sample_failure_times(10.0, 100_000.0, seed=3)
        gaps = np.diff(np.concatenate([[0.0], np.asarray(times)]))
        assert 9.0 < float(gaps.mean()) < 11.0

    @pytest.mark.parametrize("mttf", [0.0, -1.0, float("nan"), float("inf")])
    def test_sample_refuses_an_mttf_that_never_ends_the_walk(self, mttf):
        with pytest.raises(ConfigError, match="MTTF"):
            sample_failure_times(mttf, 100.0)

    def test_injector_dispenses_each_kill_once(self):
        s = NodeKillSchedule(kill_times=(1.0, 2.0, 3.0), victims=(0, 1, 0))
        inj = NodeKillInjector(s)
        assert inj.due(0.5) == []
        assert inj.due(2.5) == [(1.0, 0), (2.0, 1)]
        assert inj.due(2.5) == []
        assert inj.peek_next() == (3.0, 0)
        assert inj.remaining == 1
        assert inj.due(10.0) == [(3.0, 0)]
        assert inj.kills_fired == 3


# ----------------------------------------------------------------------
# local promotion policy
# ----------------------------------------------------------------------


def replicated(transport="local", seed=0, nodes=3, **kwargs):
    """A hot-replicated cluster with its failover manager (the scenario
    construction); ``kwargs`` are further scenario inputs."""
    return Scenario(
        transport=transport, seed=seed, nodes=nodes, replicas=2, lease_s=LEASE, **kwargs
    )


class TestLocalFailover:
    def test_beat_keeps_everyone_alive(self):
        states = replicated().manager.beat()
        assert all(s is NodeState.ALIVE for s in states.values())

    def test_kill_promote_and_keep_training(self):
        seed = 0
        s = replicated(seed=seed, batches=8, checkpoint_every=2)
        server, manager, registry = s.backend, s.manager, s.registry
        s.train(0, 4)
        victim = server.nodes[1]
        victim.kill_primary()
        assert manager.handle_timeout(1) == "promoted"
        report = manager.promotions[0]
        assert report.node_id == 1
        assert report.promotion_seconds == FAILOVER_SECONDS
        assert report.unavailability_seconds <= manager.unavailability_bound_s()
        assert manager.detector.state_of(1) is NodeState.ALIVE
        s.train(4, 8)
        assert_bitwise_equal(server.state_snapshot(), reference_state(seed, 8))
        # Metrics recorded the episode.
        assert (
            registry.counter(
                "repro_failover_promotions_total", {"node": "1"}
            ).value
            == 1
        )
        assert (
            registry.histogram("repro_failover_unavailability_seconds").count
            == 1
        )

    def test_promotion_waits_out_the_lease(self):
        s = replicated()
        s.manager.beat()  # fresh leases at t=0
        s.backend.nodes[2].kill_primary()
        before = s.clock.now
        s.manager.handle_timeout(2)
        # Detection cannot finish before the lease deadline.
        assert s.clock.now >= before + LEASE - 1e-9

    def test_false_positive_is_retry_not_promotion(self):
        s = replicated()
        s.clock.advance(LEASE * 3)  # every lease lapsed, nobody died
        assert s.manager.detector.state_of(0) is NodeState.DEAD
        assert s.manager.handle_timeout(0) == "retry"
        assert s.manager.promotions == []
        assert s.manager.detector.state_of(0) is NodeState.ALIVE
        assert s.backend.nodes[0].failovers == 0

    def test_transport_promote_is_idempotent_on_alive_node(self):
        s = replicated()
        assert s.manager.cluster._shard_promote(0) == 0.0
        assert s.backend.nodes[0].failovers == 0

    def test_rebuild_rides_the_heartbeat_rounds(self):
        seed = 2
        s = replicated(seed=seed, batches=4, checkpoint_every=2)
        server, manager, registry = s.backend, s.manager, s.registry
        s.train(0, 4)
        server.nodes[0].kill_primary()
        manager.handle_timeout(0)
        node = server.nodes[0]
        assert node.degraded
        for __ in range(64):
            manager.beat()
            if not node.degraded:
                break
        assert not node.degraded
        node.verify_replicas_identical()
        assert (
            registry.gauge(
                "repro_failover_rereplication_progress", {"node": "0"}
            ).value
            == 1.0
        )
        # Training continues seamlessly on the re-replicated pair.
        s.train(4, 6)
        assert_bitwise_equal(server.state_snapshot(), reference_state(seed, 6))

    def test_double_fault_falls_back_to_checkpoint_recovery(self):
        seed = 3
        s = replicated(seed=seed, batches=4, checkpoint_every=2)
        server, manager, registry = s.backend, s.manager, s.registry
        s.train(0, 4)
        server.nodes[1].kill_primary()
        manager.handle_timeout(1)  # promoted; node 1 now degraded
        server.nodes[1].kill_primary()  # backup (now primary) dies too
        with pytest.raises(FailoverError):
            manager.handle_timeout(1)
        assert manager.double_faults == 1
        assert (
            registry.counter("repro_failover_double_faults_total").value == 1
        )
        # The paper's path: crash survivors, recover from PMem, replay.
        resume = s.recover() + 1
        assert resume >= 1
        s.train(resume, 8)
        assert_bitwise_equal(
            s.backend.state_snapshot(), reference_state(seed, 8)
        )
        # replicas=2 recovery re-replicates before serving.
        assert all(not node.degraded for node in s.backend.nodes)


# ----------------------------------------------------------------------
# ReplicatedPSNode: rebuild machinery + epoch reconciliation
# ----------------------------------------------------------------------


def single_replicated(seed=0):
    """A one-shard replicated scenario and its ReplicatedPSNode."""
    s = replicated(seed=seed, nodes=1)
    return s, s.backend.nodes[0]


class TestReplicatedRebuild:
    def test_tick_state_machine(self):
        s, node = single_replicated()
        s.train(0, 3)
        assert node.rebuild_tick() == "idle"  # healthy pair: nothing to do
        node.kill_primary()
        assert node.rebuild_tick() == "idle"  # dead primary: cannot rebuild
        node.failover()
        assert node.degraded
        assert node.rebuild_tick() == "started"
        states = set()
        for __ in range(64):
            state = node.rebuild_tick(max_keys=8)
            states.add(state)
            if state == "done":
                break
        assert "copying" in states and "done" in states
        assert not node.degraded
        node.verify_replicas_identical()
        assert node.rebuild_report.finished

    def test_writes_during_rebuild_are_patched(self):
        s, node = single_replicated(seed=4)
        s.train(0, 3)
        node.kill_primary()
        node.failover()
        node.begin_rebuild()
        # Concurrent training while the census copies.
        s.train(3, 6)
        while node.rebuild_step(16):
            pass
        report = node.finish_rebuild()
        assert report.finished and report.keys_copied == node.num_entries
        node.verify_replicas_identical()

    def test_ring_word_mirrored_onto_fresh_backup(self):
        s, node = single_replicated()
        s.train(0, 2)
        packed = pack_ring_state(3, 1)
        node.set_root_field(RING_STATE_FIELD, packed)
        assert node.backup.pool.root.fields()[RING_STATE_FIELD] == packed
        node.kill_primary()
        node.failover()
        node.rebuild_backup()
        # The rebuilt replica's pool carries the committed ring word, so
        # a future promotion (and double-fault recovery from its pool)
        # still serves the committed routing.
        assert node.backup.pool.root.fields()[RING_STATE_FIELD] == packed

    def test_guards(self):
        __, node = single_replicated()
        with pytest.raises(ServerError, match="without a failed primary"):
            node.failover()
        node.kill_primary()
        node.kill_primary()  # idempotent
        with pytest.raises(NodeDeadError):
            node.pull([1], 0)
        node.failover()
        with pytest.raises(ServerError, match="no rebuild in progress"):
            node.rebuild_step()
        node.kill_primary()  # a degraded pair's kill is the double fault
        with pytest.raises(FailoverError):
            node.failover()


# ----------------------------------------------------------------------
# satellite a: a primary killed at every migration step
# ----------------------------------------------------------------------


class TestMigrationInterleaving:
    @pytest.mark.parametrize("step", MIGRATION_STEPS)
    def test_promotion_mid_migration_serves_committed_ring(self, step):
        """Kill node 1's primary right before each labelled migration step
        (the manager promotes it there); the cluster must route by the
        committed ring word, the promoted backup must own exactly its
        routed keys, and the final weights must equal the fault-free
        replay bitwise."""
        s = replicated(
            seed=1, batches=8, checkpoint_every=2,
            schedule=[reshard(3, "scale_out"), kill(3, 1, phase=step)],
        ).run()
        server = s.backend
        assert [e.phase for e in s.log if e.kind == "kill"] == [step]
        assert len(s.promotions) == 1 and s.promotions[0].node_id == 1
        assert s.report.to_nodes == 4
        committed = unpack_ring_state(
            server.nodes[0].pool.root.fields()[RING_STATE_FIELD]
        )[0]
        assert server.ring_epoch == committed
        assert_exclusive_ownership(server)
        assert_bitwise_equal(server.state_snapshot(), reference_state(1, 8))


# ----------------------------------------------------------------------
# RPC transport: silence, typed dead-node error, idempotent Promote
# ----------------------------------------------------------------------


class TestRemoteFailover:
    def test_heartbeat_reports_progress(self):
        s = replicated("rpc")
        s.train(0, 2)
        response = s.manager.cluster.probe_channel(1).call(
            HeartbeatRequest(node_id=1)
        )
        assert response.ok
        assert response.value == s.backend.nodes[1].latest_completed_batch

    def test_dead_shard_goes_silent_and_client_promotes(self):
        seed = 0
        s = replicated("rpc", seed=seed, batches=7, checkpoint_every=3)
        client, manager, registry = s.backend, s.manager, s.registry
        s.train(0, 3)
        client.nodes[2].kill_primary()
        # The client discovers the death through its own unanswered
        # calls — nothing here tells the manager.
        s.train(3, 7)
        assert len(manager.promotions) == 1
        assert manager.promotions[0].node_id == 2
        assert client.nodes[2].failovers == 1
        client.barrier_checkpoint(6)
        assert_bitwise_equal(client.state_snapshot(), reference_state(seed, 7))
        assert (
            registry.counter(
                "repro_failover_promotions_total", {"node": "2"}
            ).value
            == 1
        )

    def test_node_dead_error_is_typed_fast_fail(self):
        """Satellite: a channel whose node was *declared dead* fails in
        O(1) with :class:`NodeDeadError` ("reroute me") instead of
        burning the retry budget into :class:`RpcTimeoutError` ("the
        wire may just be slow")."""
        # Phase 1 — no death verdict armed: a silent shard burns the
        # whole retry budget and surfaces as a timeout ("maybe slow").
        plain = build_backend("rpc", server_config(3, 0, replicas=2, lease_s=LEASE))
        plain.nodes[1].kill_primary()
        before = plain.clock.now
        with pytest.raises(RpcTimeoutError):
            plain.channel_for(1).call(MaintainRequest(batch_id=0))
        timeout_cost = plain.clock.now - before
        assert timeout_cost > 0
        # Phase 2 — lease expired and death declared: the same call on
        # an armed channel fails fast and typed ("reroute me").
        s = replicated("rpc")
        client, manager = s.backend, s.manager
        client.nodes[1].kill_primary()
        client.clock.advance(client.server_config.lease_s * 2)
        manager.detector.declare_dead(1)
        channel = client.channel_for(1)
        before = client.clock.now
        with pytest.raises(NodeDeadError) as exc:
            channel.call(MaintainRequest(batch_id=0))
        assert exc.value.node_id == 1
        assert client.clock.now - before < timeout_cost
        assert channel.stats.dead_fails >= 1

    def test_promote_rpc_idempotent_on_alive_node(self):
        s = replicated("rpc")
        response = s.manager.cluster.probe_channel(0).call(
            PromoteRequest(node_id=0)
        )
        assert response.ok
        assert s.backend.nodes[0].failovers == 0

    def test_promote_rpc_double_fault_is_typed_wire_error(self):
        s = replicated("rpc")
        node = s.backend.nodes[1]
        node.kill_primary()
        node.failover()
        node.kill_primary()  # promoted primary dies; no backup left
        with pytest.raises(FailoverError):
            s.manager.cluster._shard_promote(1)

    def test_rebuild_ticks_once_per_beat_on_both_backends(self):
        """One ``REBUILD_CHUNK`` per heartbeat round, ticked by the
        manager alone: the same 2 000-key rebuild takes the same rounds
        in process and over RPC, and the ticks counter counts them (a
        probe that also ticked on the service halved the RPC rounds)."""
        keys = np.arange(2000, dtype=np.uint64)
        rounds = {}
        for kind in ("local", "rpc"):
            s = replicated(kind, nodes=2)
            backend, manager, registry = s.backend, s.manager, s.registry
            backend.pull(keys, 0)
            backend.maintain(0)
            backend.push(keys, np.full((len(keys), DIM), 0.01, np.float32), 0)
            backend.barrier_checkpoint(0)
            backend.nodes[0].kill_primary()
            manager.handle_timeout(0)
            node = backend.nodes[0]
            beats = 0
            while node.degraded:
                manager.beat()
                beats += 1
            census = node.rebuild_report.keys_total
            # started + one per chunk + done
            assert beats == 2 + -(-census // REBUILD_CHUNK), kind
            ticks = registry.counter(
                "repro_failover_rereplication_ticks_total", {"node": "0"}
            ).value
            assert ticks == beats, kind
            node.verify_replicas_identical()
            rounds[kind] = beats
        assert rounds["local"] == rounds["rpc"]

    def test_wire_roundtrip(self):
        hb = HeartbeatRequest(node_id=3)
        assert HeartbeatRequest.decode_body(hb.encode_body()) == hb
        pr = PromoteRequest(node_id=7)
        assert PromoteRequest.decode_body(pr.encode_body()) == pr
        err = StatusResponse(code=StatusResponse.ERR_FAILOVER, detail="df")
        assert not err.ok


# ----------------------------------------------------------------------
# the chaos soak: K MTTF kills over all three transports
# ----------------------------------------------------------------------


def soak(seed, kills, transport="local", batches=30, mttf_s=4.0):
    """Poisson MTTF kills polled before and mid batch, barriers every
    third batch: the scenario the failover bench runs per transport."""
    return replicated(
        transport, seed=seed, batches=batches, checkpoint_every=3,
        mttf=poisson_kills(kills, batches, seed, mttf_s=mttf_s),
    ).run()


class TestChaosSoak:
    def test_local_soak_survives_three_kills(self):
        result = soak(0, 3)
        result.audit(min_kills=3)
        assert percentile(result.unavailability_seconds, 99) <= (
            result.unavailability_bound_s
        )

    def test_remote_soak_survives_three_kills(self):
        result = soak(1, 3, "rpc")
        result.audit(min_kills=3)
        # Client-driven promotions (unless a double fault rerouted a
        # kill through checkpoint recovery, or a kill landed inside an
        # earlier kill's detection window).
        assert (
            len(result.promotions)
            + result.recoveries
            + result.absorbed_kills
            >= 3
        )
        assert len(result.promotions) >= 1

    def test_remote_faulty_soak_survives_three_kills(self):
        # The lossy wire advances the simulated clock fast (retries,
        # backoff), so a tighter MTTF keeps all three kills inside the
        # soak's horizon.
        result = soak(2, 3, "rpc_lossy", mttf_s=2.0)
        result.audit(min_kills=3)

    def test_soak_double_fault_completes_via_recovery(self):
        """Two kills on the same shard, closer together than the
        rebuild: the second is a double fault and the soak must finish
        through checkpoint recovery — still bitwise exact."""
        # First kill is detected at the batch-3 poll (t=3.0) and
        # promoted by ~3.5; the second lands in the next poll window,
        # while the background rebuild is still copying — backup gone.
        schedule = NodeKillSchedule(
            kill_times=(2.05, 4.0), victims=(1, 1)
        )
        result = replicated(
            seed=3, batches=16, checkpoint_every=3, mttf=schedule
        ).run()
        assert result.kills == 2
        assert result.double_faults >= 1
        assert result.recoveries >= 1
        assert_bitwise_equal(result.backend.state_snapshot(), result.reference)
        assert_monotone_checkpoints(result.checkpoint_trail)

    def test_soak_regains_fault_tolerance(self):
        result = soak(0, 2)
        # Background re-replication restored every shard's backup by
        # the end of the soak (heartbeat rounds ticked it forward).
        assert result.rebuilds_completed == len(result.backend.nodes)


# ----------------------------------------------------------------------
# pricing: cost model + TrainingSimulator MTTF injection
# ----------------------------------------------------------------------


def make_sim(replicas=2, mttf_s=None, lease_s=0.5, iterations_hint=20):
    server = ServerConfig(
        embedding_dim=16,
        pmem_capacity_bytes=1 << 26,
        replicas=replicas,
        lease_s=lease_s,
    )
    cache = CacheConfig(capacity_bytes=200 * 16 * 4)
    cluster = ClusterConfig(
        num_workers=4,
        batch_size=32,
        network=NetworkConfig(bandwidth_bytes_per_s=60e6),
    )
    workload = WorkloadGenerator(
        WorkloadConfig(num_keys=20_000, features_per_sample=4, seed=1)
    )
    return TrainingSimulator(
        SystemKind.PMEM_OE,
        cluster,
        server,
        cache,
        CheckpointConfig.none(),
        workload,
        mttf_s=mttf_s,
    )


class TestFailoverPricing:
    def test_price_failover_shape(self):
        sim = make_sim()
        timing = sim.cost_model.price_failover(
            resident_entries=100_000, lease_s=0.5
        )
        assert timing.detection == 0.5
        assert timing.promotion == FAILOVER_SECONDS
        assert timing.unavailability == pytest.approx(0.5 + FAILOVER_SECONDS)
        assert timing.rereplication > 0
        assert timing.total >= timing.unavailability
        assert timing.recovery_alternative > 0
        # The ablation the paper motivates: at PS scale (Figure 14 is
        # 2.1 B entries / ~380 s) checkpoint recovery costs far more
        # than the lease-bounded failover; at toy scale it can win.
        at_scale = sim.cost_model.price_failover(
            resident_entries=100_000_000, lease_s=0.5
        )
        assert at_scale.recovery_alternative > at_scale.unavailability
        assert at_scale.unavailability == timing.unavailability

    def test_recovery_alternative_scales_with_entries(self):
        sim = make_sim()
        small = sim.cost_model.price_failover(
            resident_entries=10_000, lease_s=0.5
        )
        big = sim.cost_model.price_failover(
            resident_entries=10_000_000, lease_s=0.5
        )
        assert big.recovery_alternative > small.recovery_alternative
        # Unavailability is scale-independent: that is the whole point.
        assert big.unavailability == small.unavailability

    def test_simulator_injects_failovers_with_replicas(self):
        # Probe the fault-free runtime, then set the MTTF well inside it
        # so kills are certain to land.
        base = make_sim(replicas=2).run(20)
        mttf = max(base.sim_seconds / 20.0, 1e-6)
        result = make_sim(replicas=2, mttf_s=mttf).run(20)
        assert result.failures_injected >= 1
        assert result.failovers_completed == result.failures_injected
        assert result.failover_pause_seconds > 0
        assert result.rereplication_seconds > 0
        assert result.recovery_pause_seconds == 0
        assert result.sim_seconds > base.sim_seconds

    def test_simulator_prices_recovery_without_replicas(self):
        base = make_sim(replicas=1).run(20)
        mttf = max(base.sim_seconds / 20.0, 1e-6)
        result = make_sim(replicas=1, mttf_s=mttf).run(20)
        assert result.failures_injected >= 1
        assert result.failovers_completed == 0
        assert result.recovery_pause_seconds > 0

    def test_invalid_mttf_rejected(self):
        with pytest.raises(ConfigError):
            make_sim(mttf_s=0.0)


# ----------------------------------------------------------------------
# satellite b: Young (1974) checkpoint-interval planning
# ----------------------------------------------------------------------


class TestYoungPlanning:
    def test_interval_formula(self):
        assert young_interval_seconds(15.0, 43200.0) == pytest.approx(
            np.sqrt(2 * 15.0 * 43200.0)
        )

    def test_expected_lost_work_is_half_interval(self):
        interval = young_interval_seconds(15.0, 43200.0)
        assert expected_lost_work_seconds(interval, 43200.0) == pytest.approx(
            interval / 2
        )


# ----------------------------------------------------------------------
# CLI: simulate with --mttf/--replicas/--lease-ms
# ----------------------------------------------------------------------


class TestSimulateCli:
    def test_simulate_with_failover_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--workers",
                "2",
                "--iterations",
                "30",
                "--mttf",
                "0.01",
                "--replicas",
                "2",
                "--lease-ms",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node kills" in out
        assert "failover pause" in out

    def test_simulate_replicas_one_prices_recovery(self, capsys):
        code = main(
            [
                "simulate",
                "--workers",
                "2",
                "--iterations",
                "30",
                "--mttf",
                "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node kills" in out
        assert "recovery pause" in out

    def test_simulate_accepts_a_short_lease(self, capsys):
        """A lease of 100 ms or less used to die with a ConfigError from a
        heartbeat-interval check nothing read."""
        code = main(
            "simulate --system pmem_oe --workers 4 --iterations 5 "
            "--replicas 2 --lease-ms 50".split()
        )
        assert code == 0
        assert "iterations        : 5" in capsys.readouterr().out
