"""SynchronousTrainer: multi-worker training, checkpoint, recovery."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import CheckpointError, ConfigError, RecoveryError

FIELDS, DIM = 6, 8


def build(seed=7, capacity_entries=16, num_nodes=2, checkpoint_every=None):
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=100, seed=3)
    server_config = ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        seed=seed,
    )
    cache_config = CacheConfig(capacity_bytes=capacity_entries * DIM * 4 * 2)
    ps_optimizer = PSAdagrad(lr=0.05)
    server = OpenEmbeddingServer(server_config, cache_config, ps_optimizer)
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed)
    trainer = SynchronousTrainer(
        server,
        model,
        dataset,
        num_workers=2,
        batch_size=16,
        dense_optimizer=Adam(1e-2),
        checkpoint_every=checkpoint_every,
    )
    return trainer, server_config, cache_config, ps_optimizer, dataset


class TestTraining:
    def test_step_advances_batch(self):
        trainer, *_ = build()
        result = trainer.step()
        assert result.batch_id == 0
        assert trainer.next_batch == 1
        assert np.isfinite(result.loss)

    def test_loss_decreases_over_training(self):
        trainer, *_ = build()
        results = trainer.train(60)
        early = np.mean([r.loss for r in results[:10]])
        late = np.mean([r.loss for r in results[-10:]])
        assert late < early

    def test_worker_count_does_not_change_semantics(self):
        """1 worker with batch 32 == 2 workers with batch 16 (global
        mean loss, summed PS pushes)."""
        dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=100, seed=3)

        def run(workers, batch_size):
            server_config = ServerConfig(
                num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=7
            )
            server = OpenEmbeddingServer(
                server_config, CacheConfig(capacity_bytes=1 << 20), PSAdagrad(lr=0.05)
            )
            model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=7)
            trainer = SynchronousTrainer(
                server, model, dataset,
                num_workers=workers, batch_size=batch_size,
                dense_optimizer=Adam(1e-2),
            )
            trainer.train(5)
            return server.state_snapshot(), model.dense_state()

    # Weights should match to float tolerance (summation order differs).
        snap1, dense1 = run(1, 32)
        snap2, dense2 = run(2, 16)
        assert set(snap1) == set(snap2)
        for key in snap1:
            assert np.allclose(snap1[key], snap2[key], atol=1e-5)
        for a, b in zip(dense1, dense2):
            assert np.allclose(a, b, atol=1e-5)

    def test_invalid_construction(self):
        trainer, *_ = build()
        with pytest.raises(ConfigError):
            SynchronousTrainer(
                trainer.backend,
                DeepFM(FIELDS, DIM, use_first_order=True),
                trainer.dataset,
            )


class TestCheckpointing:
    def test_request_before_training_rejected(self):
        trainer, *_ = build()
        with pytest.raises(CheckpointError):
            trainer.request_checkpoint()

    def test_automatic_requests(self):
        trainer, *_ = build(checkpoint_every=5)
        trainer.train(10)
        assert len(trainer.dense_checkpoints.snapshots) == 2
        assert 4 in trainer.dense_checkpoints.snapshots
        assert 9 in trainer.dense_checkpoints.snapshots

    def test_barrier_checkpoint_completes_globally(self):
        trainer, *_ = build()
        trainer.train(3)
        batch_id = trainer.barrier_checkpoint()
        assert batch_id == 2
        assert trainer.backend.global_completed_checkpoint == 2

    def test_dense_store_prunes(self):
        trainer, *_ = build(checkpoint_every=1)
        trainer.train(8)
        assert len(trainer.dense_checkpoints.snapshots) <= trainer.dense_checkpoints.keep_last


class TestRecovery:
    def _recover(self, survivors, builders, dataset):
        pools, __, dense = survivors
        server_config, cache_config, ps_optimizer = builders
        model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=7)
        return SynchronousTrainer.recover(
            pools,
            dense,
            model=model,
            dataset=dataset,
            server_config=server_config,
            cache_config=cache_config,
            ps_optimizer=ps_optimizer,
            num_workers=2,
            batch_size=16,
            dense_optimizer=Adam(1e-2),
        )

    def test_crash_recover_resume_equals_uninterrupted(self):
        """The flagship correctness property: training with a crash and
        recovery produces the same final model as never crashing."""
        total = 24
        reference, *_ = build()
        reference.train(12)
        reference.request_checkpoint()
        reference.train(total - 12)
        ref_sparse = reference.backend.state_snapshot()
        ref_dense = reference.model.dense_state()

        crashed, server_config, cache_config, ps_optimizer, dataset = build()
        crashed.train(12)
        crashed.request_checkpoint()
        crashed.train(6)  # checkpoint 11 completes opportunistically
        survivors = crashed.crash()
        recovered = self._recover(
            survivors, (server_config, cache_config, ps_optimizer), dataset
        )
        assert recovered.next_batch == 12
        recovered.train(total - recovered.next_batch)

        got_sparse = recovered.backend.state_snapshot()
        assert set(got_sparse) == set(ref_sparse)
        for key in ref_sparse:
            assert np.array_equal(got_sparse[key], ref_sparse[key])
        for a, b in zip(ref_dense, recovered.model.dense_state()):
            assert np.array_equal(a, b)

    def test_recovery_without_snapshot_fails(self):
        trainer, server_config, cache_config, ps_optimizer, dataset = build()
        trainer.train(3)
        trainer.barrier_checkpoint()
        pools, __, dense = trainer.crash()
        dense.snapshots.clear()
        with pytest.raises(RecoveryError):
            self._recover(
                (pools, None, dense),
                (server_config, cache_config, ps_optimizer),
                dataset,
            )

    def test_loss_history_continues_sensibly(self):
        trainer, server_config, cache_config, ps_optimizer, dataset = build()
        trainer.train(10)
        trainer.barrier_checkpoint()
        survivors = trainer.crash()
        recovered = self._recover(
            survivors, (server_config, cache_config, ps_optimizer), dataset
        )
        results = recovered.train(5)
        assert all(np.isfinite(r.loss) for r in results)
