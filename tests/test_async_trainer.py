"""Asynchronous training: staleness effects and checkpoint caveats."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSSGD
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import ConfigError

FIELDS, DIM = 5, 8


def build_async(dataset, workers=2, staleness=1, seed=11):
    server = OpenEmbeddingServer(
        ServerConfig(
            num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=seed
        ),
        CacheConfig(capacity_bytes=64 << 10),
        PSSGD(lr=0.05),
    )
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed)
    return AsynchronousTrainer(
        server,
        model,
        dataset,
        num_workers=workers,
        batch_size=16,
        staleness=staleness,
        dense_optimizer=Adam(1e-2),
    )


@pytest.fixture
def dataset():
    return CriteoSynthetic(num_fields=FIELDS, vocab_per_field=60, seed=2)


class TestScheduling:
    def test_workers_consume_disjoint_batches(self, dataset):
        trainer = build_async(dataset, workers=2)
        trainer.run_steps(4)
        assert trainer._next_batch_per_worker == [4, 5]

    def test_staleness_delays_pushes(self, dataset):
        trainer = build_async(dataset, workers=2, staleness=3)
        trainer.run_steps(2)
        assert trainer.pending_pushes == 2  # nothing old enough yet
        trainer.run_steps(3)
        assert trainer.pending_pushes <= 3

    def test_zero_staleness_applies_immediately(self, dataset):
        trainer = build_async(dataset, workers=2, staleness=0)
        trainer.run_steps(3)
        assert trainer.pending_pushes == 0

    def test_losses_finite_and_learning(self, dataset):
        trainer = build_async(dataset, workers=4, staleness=2)
        losses = trainer.run_steps(120)
        assert all(np.isfinite(l) for l in losses)
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_invalid_args(self, dataset):
        with pytest.raises(ConfigError):
            build_async(dataset, staleness=-1)


class TestSyncVsAsync:
    def test_async_differs_from_sync(self, dataset):
        """Stale multi-worker updates produce a different model than
        synchronous training over the same data."""
        async_trainer = build_async(dataset, workers=2, staleness=2)
        async_trainer.run_steps(20)
        async_trainer.checkpoint(quiesce=True)
        async_state = async_trainer.backend.state_snapshot()

        sync_server = OpenEmbeddingServer(
            ServerConfig(
                num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=11
            ),
            CacheConfig(capacity_bytes=64 << 10),
            PSSGD(lr=0.05),
        )
        sync_model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=11)
        sync = SynchronousTrainer(
            sync_server, sync_model, dataset,
            num_workers=2, batch_size=16, dense_optimizer=Adam(1e-2),
        )
        sync.train(10)  # same number of worker-batches
        sync_state = sync_server.state_snapshot()
        shared = set(async_state) & set(sync_state)
        assert shared
        differing = sum(
            0 if np.array_equal(async_state[k], sync_state[k]) else 1 for k in shared
        )
        assert differing > 0

    def test_single_worker_zero_staleness_tracks_sync(self, dataset):
        """One worker with no staleness is synchronous training."""
        async_trainer = build_async(dataset, workers=1, staleness=0)
        async_trainer.run_steps(6)
        sync_server = OpenEmbeddingServer(
            ServerConfig(
                num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=11
            ),
            CacheConfig(capacity_bytes=64 << 10),
            PSSGD(lr=0.05),
        )
        sync_model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=11)
        sync = SynchronousTrainer(
            sync_server, sync_model, dataset,
            num_workers=1, batch_size=16, dense_optimizer=Adam(1e-2),
        )
        sync.train(6)
        a = async_trainer.backend.state_snapshot()
        b = sync_server.state_snapshot()
        assert set(a) == set(b)
        for key in a:
            assert np.allclose(a[key], b[key], atol=1e-6)


class TestAsyncCheckpoints:
    def test_quiesced_checkpoint_captures_everything(self, dataset):
        trainer = build_async(dataset, workers=2, staleness=3)
        trainer.run_steps(10)
        missed = trainer.checkpoint(quiesce=True)
        assert missed == 0
        assert trainer.pending_pushes == 0

    def test_non_quiesced_checkpoint_misses_in_flight(self, dataset):
        """The asynchronous-checkpoint caveat: in-flight gradients are
        not part of the snapshot."""
        trainer = build_async(dataset, workers=2, staleness=4)
        trainer.run_steps(10)
        in_flight_before = trainer.pending_pushes
        assert in_flight_before > 0
        missed = trainer.checkpoint(quiesce=False)
        assert missed == in_flight_before
        # The in-flight updates land AFTER the checkpoint: the durable
        # snapshot and the live state diverge.
        snapshot = {
            k: np.array(v, copy=True)
            for k, v in trainer.backend.state_snapshot().items()
        }
        trainer.run_steps(4)  # applies the stale pushes
        live = trainer.backend.state_snapshot()
        assert any(
            not np.array_equal(snapshot[k], live[k]) for k in snapshot
        )
