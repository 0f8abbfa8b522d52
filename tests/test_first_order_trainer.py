"""The full DeepFM: a second, dim-1 sparse table for the FM first-order term.

``SynchronousTrainer(first_order_server=…)`` and
``recover(first_order_pools=…, first_order_config=…)`` train and restore
two sparse tables at one checkpoint id; a crashed-and-resumed run must
equal an uninterrupted one bit for bit, with and without the lookahead
pipeline (which fronts the embedding table only).
"""

import numpy as np
import pytest

from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import ConfigError, RecoveryError

FIELDS, DIM, STEPS = 4, 8, 7
CONFIG = ServerConfig(num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=3)
FIRST_CONFIG = ServerConfig(num_nodes=2, embedding_dim=1, pmem_capacity_bytes=1 << 22, seed=5)
CACHE = CacheConfig(capacity_bytes=64 << 10)


def make_model():
    return DeepFM(FIELDS, DIM, hidden=(8,), use_first_order=True, seed=2)


def make_dataset():
    return CriteoSynthetic(num_fields=FIELDS, vocab_per_field=60, seed=6)


def shared(prefetch):
    return dict(num_workers=2, batch_size=8, checkpoint_every=3, prefetch=prefetch)


def make_trainer(prefetch):
    return SynchronousTrainer(
        OpenEmbeddingServer(CONFIG, CACHE, PSAdagrad(lr=0.05)),
        make_model(),
        make_dataset(),
        dense_optimizer=Adam(1e-2),
        first_order_server=OpenEmbeddingServer(FIRST_CONFIG, CACHE, PSAdagrad(lr=0.05)),
        **shared(prefetch),
    )


def recover(survivors, prefetch=None, first_order_config=FIRST_CONFIG):
    pools, first_pools, dense = survivors
    return SynchronousTrainer.recover(
        pools,
        dense,
        model=make_model(),
        dataset=make_dataset(),
        server_config=CONFIG,
        cache_config=CACHE,
        ps_optimizer=PSAdagrad(lr=0.05),
        first_order_pools=first_pools,
        first_order_config=first_order_config,
        dense_optimizer=Adam(1e-2),
        **shared(prefetch),
    )


def tables(trainer):
    return trainer.backend.state_snapshot(), trainer.first_order_server.state_snapshot()


def assert_tables_equal(got, want):
    for got_table, want_table in zip(got, want):
        assert got_table.keys() == want_table.keys()
        for key, row in want_table.items():
            assert np.array_equal(got_table[key], row), key


def test_model_with_first_order_needs_its_server():
    with pytest.raises(ConfigError, match="first_order_server"):
        SynchronousTrainer(
            OpenEmbeddingServer(CONFIG, CACHE), make_model(), make_dataset()
        )


class TestCrashResume:
    @pytest.mark.parametrize(
        "prefetch", [None, PrefetchConfig(lookahead=2)], ids=["serial", "lookahead2"]
    )
    def test_resumed_run_equals_uninterrupted(self, prefetch):
        reference = make_trainer(prefetch)
        want_losses = [step.loss for step in reference.train(STEPS)]
        assert len(reference.first_order_server.state_snapshot()) > 0

        trainer = make_trainer(prefetch)
        losses = [step.loss for step in trainer.train(4)]
        assert trainer.barrier_checkpoint() == 3
        trainer.train(1)  # lost by the crash
        resumed = recover(trainer.crash(), prefetch)
        assert resumed.next_batch == 4
        losses += [step.loss for step in resumed.train(STEPS - 4)]

        assert losses == want_losses
        assert_tables_equal(tables(resumed), tables(reference))
        for got, want in zip(resumed.model.dense_state(), reference.model.dense_state()):
            assert np.array_equal(got, want)

    def test_tables_at_different_checkpoints_refuse(self):
        trainer = make_trainer(None)
        trainer.train(4)
        trainer.barrier_checkpoint()
        trainer.train(2)  # requests checkpoint 5 on both tables ...
        trainer.backend.complete_pending_checkpoints()  # ... one completes
        with pytest.raises(RecoveryError, match="different checkpoints"):
            recover(trainer.crash())

    def test_pools_without_config_refuse(self):
        trainer = make_trainer(None)
        trainer.train(2)
        trainer.barrier_checkpoint()
        with pytest.raises(RecoveryError, match="without its config"):
            recover(trainer.crash(), first_order_config=None)
