"""End-to-end failure loops: repeated crashes + recoveries mid-training."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer

FIELDS, DIM = 5, 8
TOTAL_BATCHES = 30
CKPT_EVERY = 4


def build_trainer(dataset, dense_checkpoints=None):
    server_config = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=5
    )
    cache_config = CacheConfig(capacity_bytes=12 * DIM * 4 * 2)
    server = OpenEmbeddingServer(server_config, cache_config, PSAdagrad(lr=0.05))
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=5)
    trainer = SynchronousTrainer(
        server,
        model,
        dataset,
        num_workers=2,
        batch_size=16,
        dense_optimizer=Adam(1e-2),
        checkpoint_every=CKPT_EVERY,
    )
    if dense_checkpoints is not None:
        trainer.dense_checkpoints = dense_checkpoints
    return trainer, server_config, cache_config


def recover_trainer(survivors, dataset):
    pools, __, dense = survivors
    server_config = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=5
    )
    cache_config = CacheConfig(capacity_bytes=12 * DIM * 4 * 2)
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=5)
    return SynchronousTrainer.recover(
        pools,
        dense,
        model=model,
        dataset=dataset,
        server_config=server_config,
        cache_config=cache_config,
        ps_optimizer=PSAdagrad(lr=0.05),
        num_workers=2,
        batch_size=16,
        dense_optimizer=Adam(1e-2),
        checkpoint_every=CKPT_EVERY,
    )


def run_with_failures(crash_points: tuple[int, ...], dataset):
    """Train to TOTAL_BATCHES, crashing and recovering once at each of
    the sorted ``crash_points``, when ``next_batch`` first reaches it."""
    pending = list(crash_points)
    trainer, *_ = build_trainer(dataset)
    recoveries = 0
    while trainer.next_batch < TOTAL_BATCHES:
        if pending and trainer.next_batch >= pending[0]:
            pending.pop(0)
            if trainer.backend.global_completed_checkpoint < 0:
                # Crash before any completed checkpoint: a real system
                # restarts from scratch; so do we.
                trainer, *_ = build_trainer(
                    dataset, dense_checkpoints=trainer.dense_checkpoints
                )
                trainer.dense_checkpoints.snapshots.clear()
                recoveries += 1
                continue
            survivors = trainer.crash()
            trainer = recover_trainer(survivors, dataset)
            recoveries += 1
            continue
        trainer.step()
    return trainer, recoveries


@pytest.fixture
def dataset():
    return CriteoSynthetic(num_fields=FIELDS, vocab_per_field=80, seed=4)


class TestFailureLoops:
    def test_single_crash_matches_reference(self, dataset):
        reference, *_ = build_trainer(dataset)
        reference.train(TOTAL_BATCHES)
        ref_state = reference.backend.state_snapshot()

        crashed, recoveries = run_with_failures((17,), dataset)
        assert recoveries == 1
        got = crashed.backend.state_snapshot()
        assert set(got) == set(ref_state)
        for key in ref_state:
            assert np.array_equal(got[key], ref_state[key])

    def test_multiple_crashes_still_converge_to_reference(self, dataset):
        reference, *_ = build_trainer(dataset)
        reference.train(TOTAL_BATCHES)
        ref_state = reference.backend.state_snapshot()
        ref_dense = reference.model.dense_state()

        crashed, recoveries = run_with_failures((9, 18, 25), dataset)
        assert recoveries == 3
        got = crashed.backend.state_snapshot()
        for key in ref_state:
            assert np.array_equal(got[key], ref_state[key])
        for a, b in zip(ref_dense, crashed.model.dense_state()):
            assert np.array_equal(a, b)

    def test_crash_before_first_checkpoint_restarts_clean(self, dataset):
        trainer, recoveries = run_with_failures((2,), dataset)
        assert recoveries == 1
        assert trainer.next_batch == TOTAL_BATCHES

    def test_back_to_back_crashes(self, dataset):
        """A crash immediately after recovery (no progress in between)
        must recover to the same checkpoint again."""
        trainer, *_ = build_trainer(dataset)
        trainer.train(10)
        survivors = trainer.crash()
        first = recover_trainer(survivors, dataset)
        resume_at = first.next_batch
        survivors2 = first.crash()
        second = recover_trainer(survivors2, dataset)
        assert second.next_batch == resume_at

    def test_poisson_failure_storm(self, dataset):
        """Frequent failures — one before the first completed checkpoint,
        two back to back — and training still reaches the end with the
        model state of the uninterrupted reference."""
        reference, *_ = build_trainer(dataset)
        reference.train(TOTAL_BATCHES)
        ref_state = reference.backend.state_snapshot()

        storm = (3, 5, 6, 13, 21, 22, 29)
        trainer, recoveries = run_with_failures(storm, dataset)
        assert recoveries == len(storm)
        assert trainer.next_batch == TOTAL_BATCHES
        got = trainer.backend.state_snapshot()
        for key in ref_state:
            assert np.array_equal(got[key], ref_state[key])
