"""Differential equivalence: mid-run resharding changes nothing but bits
of placement.

Training with a live scale-out (or scale-in) in the middle of the run
must produce **bit-identical** final weights, dense parameters and
per-step losses to a run on a static ring over the same schedule — the
migration may move entries between shards but may never touch their
values, versions or optimizer state. Extends the backend-sweep pattern
of ``tests/test_prefetch_equivalence.py`` to the elastic layer: local
and remote backends, the latter also over a fault-injected wire.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.migration import ShardMigrator
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.obs.registry import MetricsRegistry
from tests.harness.scenario import (
    DIM,
    InjectedCrash,
    assert_exclusive_ownership,
    build_backend,
    server_config,
)

FIELDS = 6
BATCHES = 10
RESHARD_AFTER = 5
CACHE = CacheConfig(capacity_bytes=48 * DIM * 4 * 2)


def _reshard(backend, direction):
    """Scale the live backend by one node; every backend reaches its
    shards through its own ``_shard_*`` hooks."""
    return backend.scale_out() if direction == "scale_out" else backend.scale_in()


def _train(transport, seed, nodes, direction=None):
    """One full run; ``direction`` reshards after ``RESHARD_AFTER``."""
    backend = build_backend(transport, server_config(nodes, seed), CACHE)
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed)
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=150, seed=seed)
    trainer = SynchronousTrainer(
        backend,
        model,
        dataset,
        num_workers=2,
        batch_size=12,
        dense_optimizer=Adam(1e-2),
        checkpoint_every=4,
    )
    losses = [r.loss for r in trainer.train(RESHARD_AFTER)]
    report = None
    if direction is not None:
        report = _reshard(backend, direction)
    losses += [r.loss for r in trainer.train(BATCHES - RESHARD_AFTER)]
    return backend, model, losses, report


def _assert_identical(reference, candidate):
    ref_backend, ref_model, ref_losses = reference[:3]
    cand_backend, cand_model, cand_losses = candidate[:3]
    ref_state = ref_backend.state_snapshot()
    cand_state = cand_backend.state_snapshot()
    assert set(ref_state) == set(cand_state)
    for key in ref_state:
        np.testing.assert_array_equal(ref_state[key], cand_state[key])
    for a, b in zip(ref_model.dense_state(), cand_model.dense_state()):
        np.testing.assert_array_equal(a, b)
    assert ref_losses == cand_losses


class TestElasticEquivalence:
    @pytest.mark.parametrize("seed", [1, 9])
    def test_local_scale_out_matches_static_ring(self, seed):
        reference = _train("local", seed, nodes=2)
        candidate = _train("local", seed, nodes=2, direction="scale_out")
        _assert_identical(reference, candidate)
        assert candidate[0].server_config.num_nodes == 3
        assert candidate[3].keys_moved > 0

    def test_local_scale_in_matches_static_ring(self):
        reference = _train("local", 3, nodes=3)
        candidate = _train("local", 3, nodes=3, direction="scale_in")
        _assert_identical(reference, candidate)
        assert candidate[0].server_config.num_nodes == 2

    def test_resharded_matches_static_at_target_size(self):
        """The candidate also matches a static ring at the TARGET node
        count — weights are placement-independent end to end."""
        reference = _train("local", 7, nodes=3)
        candidate = _train("local", 7, nodes=2, direction="scale_out")
        _assert_identical(reference, candidate)

    def test_remote_scale_out_matches_local_static(self):
        reference = _train("local", 4, nodes=2)
        candidate = _train("rpc", 4, nodes=2, direction="scale_out")
        _assert_identical(reference, candidate)

    def test_remote_faulty_scale_out_matches_local_static(self):
        """Entries migrating over a lossy wire (drops, dups, corruption)
        with retries + dedup still land the identical model."""
        reference = _train("local", 6, nodes=2)
        candidate = _train("rpc_lossy", 6, nodes=2, direction="scale_out")
        _assert_identical(reference, candidate)
        stats = candidate[0].reliability()
        assert stats.faults_injected > 0  # the wire actually misbehaved

    def test_remote_faulty_scale_in_matches_local_static(self):
        reference = _train("local", 8, nodes=3)
        candidate = _train("rpc_lossy", 8, nodes=3, direction="scale_in")
        _assert_identical(reference, candidate)
        assert candidate[0].server_config.num_nodes == 2

    def test_a_migrator_over_a_client_moves_entries_as_migrate_rpcs(self):
        """``ShardMigrator(client)`` and ``client.scale_out()`` are one
        path: every move is an export, an ingest and a drop on the wire
        (with no transport argument the migrator once copied node to
        node behind the client's back, 0 RPCs)."""
        def migrate_rpcs(reshard) -> int:
            registry = MetricsRegistry()
            client = build_backend("rpc", server_config(2, 4), CACHE, registry=registry)
            keys = np.arange(300, dtype=np.uint64)
            client.pull(keys, 0)
            client.push(keys, np.ones((len(keys), DIM), np.float32), 0)
            assert reshard(client).keys_moved > 0
            return registry.histogram(
                "repro_rpc_roundtrip_seconds", {"kind": "MigrateRequest"}
            ).count

        via_migrator = migrate_rpcs(lambda client: ShardMigrator(client).scale_out())
        via_client = migrate_rpcs(lambda client: client.scale_out())
        assert via_migrator == via_client == 3 * 2  # 2 sources -> the new node

    def test_reshard_moves_minimal_fraction(self):
        """The migration report's moved fraction stays near 1/(n+1) —
        the minimal-movement guarantee observed on real resident keys,
        not a sampled keyspace."""
        __, __, __, report = _train("local", 2, nodes=3, direction="scale_out")
        assert report is not None
        assert 0 < report.moved_fraction <= 2 * (1 / 4)

    @pytest.mark.parametrize("transport", ["local", "rpc"])
    def test_a_default_cluster_scales_out_and_back_in(self, transport):
        """No setting makes a cluster elastic: one built from a default
        ``ServerConfig`` grows and shrinks, and shrinking moves back
        exactly the keys growing moved, every weight bit-identical."""
        backend = build_backend(transport, ServerConfig(num_nodes=2), CACHE)
        keys = np.arange(300, dtype=np.uint64)
        backend.pull(keys, 0)
        backend.maintain(0)
        backend.push(keys, np.ones((len(keys), backend.server_config.embedding_dim), np.float32), 0)
        before = backend.state_snapshot()
        out, back = backend.scale_out(), backend.scale_in()
        assert 0 < out.keys_moved == back.keys_moved < len(keys)
        assert backend.server_config.num_nodes == 2 and backend.ring_epoch == 2
        after = backend.state_snapshot()
        assert set(after) == set(before)
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])

    @pytest.mark.parametrize("crash_at, nodes", [("mid_transfer", 2), ("cleanup", 3)])
    def test_a_crashed_migration_recovers_through_the_one_entry_point(self, crash_at, nodes):
        """``OpenEmbeddingServer.recover`` reads the ring word: a crash
        before the commit comes back on the old ring (the un-committed
        target's pool is surplus), a crash after it on the new ring with
        the stranded source copies purged."""
        config = ServerConfig(num_nodes=2, embedding_dim=DIM)
        server = OpenEmbeddingServer(config, CACHE)
        keys = np.arange(300, dtype=np.uint64)
        server.pull(keys, 0)
        server.maintain(0)
        server.push(keys, np.ones((len(keys), DIM), np.float32), 0)
        before = server.state_snapshot()

        def kill(label):
            if label == crash_at:
                raise InjectedCrash(label)

        migrator = ShardMigrator(server, on_step=kill)
        with pytest.raises(InjectedCrash):
            migrator.scale_out()
        pools = migrator.crash()
        assert len(pools) == 3  # both members and the target, committed or not
        recovered, reports = OpenEmbeddingServer.recover(pools, config, CACHE)
        assert recovered.server_config.num_nodes == len(reports) == nodes
        assert recovered.ring_epoch == nodes - 2
        assert_exclusive_ownership(recovered)
        after = recovered.state_snapshot()
        assert set(after) == set(before)
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])
