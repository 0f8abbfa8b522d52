"""The scenario engine's own suite: the feature pairs it opens, a search
over composed fault schedules, and a planted bug it must catch.

Every test here is one :class:`~tests.harness.scenario.Scenario`, whose
audit after every batch already holds the invariant set (bitwise replay
where deterministic, monotone Checkpointed Batch IDs, exclusive
ownership, answered kills inside the unavailability bound, admitted lag
within ``k`` of the cluster-wide frontier, ``cache.validate()``, no torn
or beyond-bound served row); the assertions below add what each pair is
about. ``pytest --soak`` raises the example count of the searches.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.core.migration import MIGRATION_STEPS
from repro.core.optimizers import PSSGD
from repro.core.ps_node import PSNode
from repro.core.sharding import RING_STATE_FIELD, unpack_ring_state
from repro.failure.injection import WorkerFaultProfile, hostile_fleet
from tests.harness.scenario import (
    CHECKPOINT_KINDS,
    DIM,
    DIRECTIONS,
    SEED,
    TRANSPORTS,
    Fleet,
    Scenario,
    build_backend,
    checkpoint,
    kill,
    reshard,
    serve,
    server_config,
)

NODES = 3
BATCHES = 8


def same_weights(a: Scenario, b: Scenario) -> bool:
    x, y = a.backend.state_snapshot(), b.backend.state_snapshot()
    return set(x) == set(y) and all(np.array_equal(x[key], y[key]) for key in x)


# ----------------------------------------------------------------------
# async x reshard: progress vectors across a scale-out and a scale-in
# ----------------------------------------------------------------------


def straggler_fleet() -> dict:
    profiles = hostile_fleet(6, 1, "sign_flip", scale=6.0, seed=7)
    for worker in (1, 2):
        profiles[worker] = WorkerFaultProfile(straggle_prob=0.4, straggle_steps=24, seed=7)
    return profiles


class TestAsyncReshard:
    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_admitted_lag_stays_within_k_of_the_cluster_frontier(self, transport):
        """A scale-out provisions a shard whose progress vector starts
        empty, and a scale-in retires one. The engine measures every
        admitted pull against the max over shards of ``last_pull``, so
        a shard that forgot a straggler would show here."""
        s = Scenario(
            seed=SEED, transport=transport, nodes=2, batches=120,
            fleet=Fleet(6, profiles=straggler_fleet()),
            staleness_bound=2, aggregator="trimmed_mean", aggregator_f=1,
            schedule=[reshard(40, "scale_out"), reshard(80, "scale_in")],
        ).run()
        assert [event.arg[0] for event in s.log] == ["scale_out", "scale_in"]
        assert s.trainer.stats.staleness_rejects > 0  # admission had stragglers to refuse
        assert 0 < s.max_lag <= 2
        assert len(s.backend.nodes) == 2


# ----------------------------------------------------------------------
# async x promotion, after a rebuild (Byzantine + lossy wire + kill)
# ----------------------------------------------------------------------


def promotion_fleet() -> dict:
    profiles = hostile_fleet(
        6, 1, "sign_flip", scale=6.0, duplicate_prob=0.2, delay_prob=0.1, seed=7
    )
    profiles[2] = WorkerFaultProfile(
        straggle_prob=0.4, straggle_steps=24, duplicate_prob=0.2, seed=7
    )
    return profiles


def promotions(transport: str, kills: list[int]) -> Scenario:
    """Kills of node 1's primary at the ``kills`` steps. Both runs take
    barriers over steps 38-49, so the rebuild the second kill starts
    finds nothing to quiesce that the twin does not quiesce too (a
    rebuild barrier folds the aggregation buffer, as any checkpoint)."""
    return Scenario(
        seed=SEED, transport=transport, nodes=2, batches=72, replicas=2,
        fleet=Fleet(6, profiles=promotion_fleet()),
        staleness_bound=2, aggregator="trimmed_mean", aggregator_f=1,
        schedule=[kill(step, 1, "pre") for step in kills]
        + [checkpoint(step) for step in range(38, 50)],
    ).run()


def admission(s: Scenario) -> tuple:
    """What admission decided: rejects per worker, and every shard's
    progress vectors and refusals. (A retried pull frame re-runs on a
    live shard, so raw admit counts are a wire fact, not a decision.)"""
    vectors = [node.staleness for node in s.backend.nodes]
    return s.trainer.stats.rejects_by_worker, [
        (vector.last_pull, vector.last_push, vector.rejected) for vector in vectors
    ]


class TestAsyncPromotion:
    @pytest.mark.parametrize("transport", ["local", "rpc_lossy"])
    def test_a_promotion_after_a_rebuild_changes_nothing(self, transport):
        """Kill, promote, re-replicate to done, kill again: the second
        promotion hands the shard to the rebuilt replica, which must
        carry what the primary held beyond its durable entries — keys
        created ahead of their pushes, progress vectors, queued
        contributions and the replay window."""
        twin, twice = promotions(transport, [10]), promotions(transport, [10, 40])
        assert [p.node_id for p in twice.promotions] == [1, 1] and twice.recoveries == 0
        assert same_weights(twin, twice)
        assert admission(twin) == admission(twice)
        dropped = [
            sum(node.aggregation.stats.duplicates_dropped for node in s.backend.nodes)
            for s in (twin, twice)
        ]
        assert dropped[0] == dropped[1]
        for node in twice.backend.nodes:  # the third replica too
            backup, primary = node.backup, node.primary
            assert (backup.staleness.last_pull, backup.staleness.last_push) == (
                primary.staleness.last_pull, primary.staleness.last_push
            )
            assert backup.aggregation.stats == primary.aggregation.stats
        stats = twice.trainer.stats
        assert stats.byzantine_pushes > 0 and stats.staleness_rejects > 0
        if transport == "rpc_lossy":
            assert twice.backend.reliability().faults_injected > 0
        else:
            assert dropped[1] > 0  # the buffer, not the wire, absorbed the duplicates


# ----------------------------------------------------------------------
# serving pins x migration
# ----------------------------------------------------------------------


class TestServingDuringMigration:
    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_no_torn_or_stale_row_across_reshards(self, transport):
        """Audited lookups (TrainServeSoak's audit) before, inside and
        after a scale-out and a scale-in. Reads at batches 5 and 13 come
        four batches past their pin, when evictions have stored newer
        versions, and rows cached inside the scale-out must not outlive
        checkpoints 6 and 7 at batch 8: a pinned read past its version,
        or a cached row past ``k``, fails the audit."""
        s = Scenario(
            transport=transport, batches=15,
            schedule=[
                checkpoint(1), serve(2, 40), serve(5, 40), reshard(5, "scale_out"),
                serve(5, 30, "transfer"), serve(5, 30, "cleanup"), checkpoint(6),
                checkpoint(7), serve(8, 40), reshard(9, "scale_in"), serve(9, 30, "commit"),
                serve(9, 30, "done"), serve(13, 40),
            ],
        ).run()
        assert len(s.served) == 8 and all(v.rows_audited > 0 for v in s.served)
        assert sum(v.torn_rows + v.stale_rows for v in s.served) == 0
        assert max(v.max_staleness for v in s.served) == 1  # pins lag, within k
        assert {pin for v in s.served for pin in v.snapshots_seen} == {1, 5, 7, 9}
        assert len(s.backend.nodes) == NODES


# ----------------------------------------------------------------------
# the search: kill x reshard x crash point x checkpoint kind
# ----------------------------------------------------------------------

_batch = st.integers(0, BATCHES - 1)
EVENTS = st.one_of(
    st.builds(kill, _batch, st.integers(0, NODES - 1), st.sampled_from(["pre", "mid"])),
    st.builds(
        reshard, _batch, st.sampled_from(DIRECTIONS), st.sampled_from((None, *MIGRATION_STEPS))
    ),
    st.builds(checkpoint, _batch, st.sampled_from(CHECKPOINT_KINDS)),
)
#: Up to four events; a cluster of NODES shards can scale in NODES - 1 times.
SCHEDULES = st.lists(EVENTS, max_size=4).filter(
    lambda schedule: sum(e.kind == "reshard" and e.arg[0] == "scale_in" for e in schedule) < NODES
)


def replicated(schedule, **kwargs) -> Scenario:
    return Scenario(
        replicas=2, nodes=NODES, batches=BATCHES, checkpoint_every=3, schedule=schedule, **kwargs
    )


class TestScheduleSearch:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_every_schedule_keeps_every_invariant(self, transport, soak, tmp_path):
        @settings(max_examples=300 if soak else 8, deadline=None)
        @given(schedule=SCHEDULES)
        def holds(schedule):
            replicated(schedule, transport=transport, artifact_dir=tmp_path).run()

        holds()

    def test_a_planted_dropped_push_fails_shrinks_and_is_postmortemed(self, tmp_path):
        """An omniscient callback loses the push right after every
        requested checkpoint. The search must find a failing schedule,
        shrink it to the one request, and the failure must name the
        batch whose push was dropped."""

        def drop_after_request(scenario, batch_id, keys, grads):
            requested = any(
                e.kind == "checkpoint" and e.arg == "request" and e.batch == batch_id - 1
                for e in scenario.schedule
            )
            return None if requested else grads

        def fails(schedule) -> bool:
            try:
                replicated(schedule, on_push=drop_after_request, artifact_dir=tmp_path).run()
            except AssertionError:
                return True
            return False

        shrunk = find(SCHEDULES, fails, settings=settings(max_examples=200, database=None))
        assert shrunk == [checkpoint(0, "request")]
        with pytest.raises(AssertionError) as excinfo:
            replicated(shrunk, on_push=drop_after_request, artifact_dir=tmp_path).run()
        message = str(excinfo.value)
        assert "weights diverged" in message
        path = message.rsplit("postmortem artifact:", 1)[1].strip()
        artifact = json.loads(Path(path).read_text())
        assert artifact["batch"] == 1  # the batch after the request
        assert artifact["fired"][0] == repr(checkpoint(0, "request"))
        assert artifact["flightrec"]["trigger"] == "soak_audit_failed"
        assert artifact["flightrec"]["attrs"]["batch"] == 1


# ----------------------------------------------------------------------
# bugs the pairs exposed (each test fails before its fix)
# ----------------------------------------------------------------------


class TestFoundByTheEngine:
    def test_a_shard_a_scale_out_added_is_watched_in_process(self):
        """kill x reshard: the in-process failover manager never leased a
        member a reshard committed, so the next heartbeat round raised."""
        s = replicated([reshard(1, "scale_out"), kill(3, NODES)], transport="local").run()
        assert [p.node_id for p in s.promotions] == [NODES]

    def test_a_node_id_a_scale_out_reuses_is_probed_at_its_new_node(self):
        """reshard x reshard x kill over RPC: probe channels are keyed by
        node id and outlived the ring commit, so after a scale-in and a
        scale-out the heartbeat to the new node 2 reached the retired
        node 2, which answered for it: its kill was never detected."""
        schedule = [reshard(1, "scale_in"), reshard(2, "scale_out"), kill(4, NODES - 1)]
        s = replicated(schedule, transport="rpc").run()
        assert [p.node_id for p in s.promotions] == [NODES - 1]

    def test_a_rebuild_barrier_behind_a_pending_request_completes_it(self):
        """kill x checkpoint request: a rebuild's barrier re-requested the
        checkpoint a pending request had queued, and the queue refused."""
        s = replicated([kill(0, 0, "pre"), checkpoint(0, "request")], transport="local").run()
        assert s.rebuilds_completed == NODES and s.checkpoint_trail[-1] == BATCHES - 1

    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_a_reshard_inside_the_rebuild_rounds_lands_in_its_one_copy(self, transport):
        """kill x rebuild x reshard: the coordinator shard is promoted at
        batch 2, its rebuild begins at batch 3's heartbeat and counts a
        round at 4's, while a scale-out (batch 3) moves keys off the
        degraded shard and a scale-in (batch 4) moves them back, each
        committing a ring word to its pool alone. The copy at the seal
        barrier must hold exactly what the primary holds then, ring word
        included."""
        schedule = [kill(2, 0), reshard(3, "scale_out"), reshard(4, "scale_in")]
        s = replicated(schedule, transport=transport)
        node = s.backend.nodes[0]
        s.train(0, 3)
        before = set(node.owned_keys().tolist())
        assert [p.node_id for p in s.promotions] == [0] and node.degraded
        s.train(3, 4)
        assert len(s.backend.nodes) == NODES + 1 and not node.rebuild_report.finished
        assert before - set(node.owned_keys().tolist())  # moved off mid-rebuild
        s.train(4, 5)
        assert len(s.backend.nodes) == NODES and node.degraded
        assert before <= set(node.owned_keys().tolist())  # and back onto it
        s.train(5, BATCHES)
        assert not node.degraded and node.rebuild_report.finished
        node.verify_replicas_identical()
        word = node.backup.pool.root.fields()[RING_STATE_FIELD]
        assert unpack_ring_state(word)[0] == s.backend.ring_epoch == 2
        s.audit()  # exclusive ownership, bitwise against the fault-free replay
        assert s.recoveries == 0

    def test_a_late_fold_keeps_lru_stamps_in_version_order(self):
        """async x aggregation: a fold of contributions older than the
        last round restamped its rows as the newest under their older
        batch, inverting the LRU's version order."""
        node = PSNode(0, server_config(1), CacheConfig(capacity_bytes=1 << 16), PSSGD(lr=0.1))
        grads = np.full((2, DIM), 0.1, np.float32)
        for batch, keys in ((0, [1, 2]), (5, [3, 4])):
            node.pull(keys, batch)
            node.maintain(batch)
            node.push(keys, grads, batch)
        node.push([1, 2], grads, 3)  # lands after round 5, carries batch 3
        node.cache.validate()

    def test_an_idle_round_completes_a_requested_checkpoint(self):
        """checkpoint request x no traffic: a round drained at most as
        many owing rows as it processed, so a round with no accesses
        completed nothing; after a request at batch 0, rounds 1-3 with
        no pulls left the serving pin at -1 (on a cluster, one idle
        shard held back every shard's pin)."""
        node = PSNode(0, server_config(1), CacheConfig(capacity_bytes=1 << 16), PSSGD(lr=0.1))
        keys = np.arange(20, dtype=np.uint64)
        node.pull(keys, 0)
        node.maintain(0)
        node.push(keys, np.full((20, DIM), 0.1, np.float32), 0)
        node.request_checkpoint(0)
        completed = [node.maintain(batch).checkpoints_completed for batch in (1, 2, 3)]
        assert completed == [1, 0, 0] and node.latest_serving_snapshot == 0

    @pytest.mark.parametrize("transport", ["local", "rpc"])
    @pytest.mark.parametrize("batch, direction", [(2, "scale_out"), (4, "scale_out"), (2, "scale_in")])
    def test_a_reshard_between_pulls_and_pushes_moves_the_keys_they_created(
        self, transport, batch, direction
    ):
        """reshard at ``mid``: the barrier flushed only the rows a
        checkpoint waited for, so a row the in-flight batch's pull had
        created left with no stored version, the target skipped it and
        cleanup dropped it: the batch's push raised KeyNotFoundError."""
        s = Scenario(
            seed=3, transport=transport, nodes=NODES, batches=BATCHES,
            schedule=[reshard(batch, direction, phase="mid")],
        ).run()
        assert [event.arg[0] for event in s.log] == [direction]

    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_a_reshard_folds_pushes_still_buffered(self, transport):
        """migration x aggregation: the barrier's "already quiesced"
        shortcut read the watermarks before any shard folded, so a push
        queued below quorum stayed on its old owners through the move,
        and the next push folded it into keys the move had dropped."""
        config = server_config(2, aggregator="mean", aggregator_workers=2, aggregator_f=0)
        backend = build_backend(transport, config)
        keys = np.arange(200, dtype=np.uint64)
        grads = np.full((200, DIM), 0.1, np.float32)
        backend.pull(keys, 0)
        backend.maintain(0)
        for worker in (0, 1):
            backend.push(keys, grads, 0, worker_id=worker, seq=1)
        backend.barrier_checkpoint(0)
        backend.pull(keys, 1, worker_id=0, progress=1)
        backend.maintain(1)
        backend.push(keys, grads, 1, worker_id=0, seq=2)  # queued below quorum
        report = backend.scale_out()
        queued = sum(node.aggregation.pending for node in backend.nodes)
        before = backend.state_snapshot()
        backend.push(keys, grads, 1, worker_id=1, seq=2)  # raised KeyNotFoundError
        backend.flush_aggregation()
        after = backend.state_snapshot()
        assert report.barrier_batch == 1 and queued == 0
        assert all(not np.array_equal(before[key], after[key]) for key in range(200))
