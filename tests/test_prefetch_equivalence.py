"""Property tests: pipelined training is bit-identical to serial.

The staleness invariant promises that routing pulls through the
lookahead prefetch pipeline changes *when* weights travel, never what
they are. These tests sweep seeds x lookahead depths x backends
(in-process and remote-RPC, the latter with and without injected wire
faults) and require byte-for-byte equality of every final embedding,
every dense parameter, and every per-step loss.
"""

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    NetworkFaultConfig,
    PrefetchConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.network.frontend import RemotePSClient

FIELDS, DIM = 6, 8
BATCHES = 10

FAULTS = NetworkFaultConfig(
    drop_rate=0.05, duplicate_rate=0.03, corrupt_rate=0.02, seed=5
)
RETRY = RetryConfig(
    max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=5
)


def _configs(seed):
    server = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=seed
    )
    cache = CacheConfig(capacity_bytes=48 * DIM * 4 * 2)
    return server, cache


def _backend(kind, seed):
    server_config, cache_config = _configs(seed)
    if kind == "local":
        return OpenEmbeddingServer(server_config, cache_config, PSAdagrad(lr=0.05))
    if kind == "remote":
        return RemotePSClient(server_config, cache_config, PSAdagrad(lr=0.05))
    if kind == "remote_faulty":
        return RemotePSClient(
            server_config,
            cache_config,
            PSAdagrad(lr=0.05),
            faults=FAULTS,
            retry=RETRY,
        )
    raise AssertionError(kind)


def _train_sync(kind, seed, prefetch):
    backend = _backend(kind, seed)
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
        prefetch=prefetch,
    )
    results = trainer.train(BATCHES)
    if trainer.pipeline is not None:
        trainer.pipeline.validate()
    return backend, model, [r.loss for r in results]


def _assert_identical(reference, candidate):
    ref_backend, ref_model, ref_losses = reference
    cand_backend, cand_model, cand_losses = candidate
    ref_state = ref_backend.state_snapshot()
    cand_state = cand_backend.state_snapshot()
    assert set(ref_state) == set(cand_state)
    for key in ref_state:
        np.testing.assert_array_equal(ref_state[key], cand_state[key])
    for a, b in zip(ref_model.dense_state(), cand_model.dense_state()):
        np.testing.assert_array_equal(a, b)
    assert ref_losses == cand_losses


class TestSynchronousEquivalence:
    @pytest.mark.parametrize("seed", [1, 9])
    @pytest.mark.parametrize("lookahead", [0, 1, 4])
    def test_local_pipelined_matches_serial(self, seed, lookahead):
        reference = _train_sync("local", seed, None)
        candidate = _train_sync(
            "local", seed, PrefetchConfig(lookahead=lookahead)
        )
        _assert_identical(reference, candidate)

    @pytest.mark.parametrize("lookahead", [0, 2])
    def test_remote_pipelined_matches_local_serial(self, lookahead):
        reference = _train_sync("local", 3, None)
        candidate = _train_sync(
            "remote", 3, PrefetchConfig(lookahead=lookahead)
        )
        _assert_identical(reference, candidate)

    def test_remote_faulty_pipelined_matches_local_serial(self):
        """Lookahead + retries + wire faults still lands identical weights."""
        reference = _train_sync("local", 4, None)
        candidate = _train_sync(
            "remote_faulty", 4, PrefetchConfig(lookahead=3)
        )
        _assert_identical(reference, candidate)
        stats = candidate[0].reliability()
        assert stats.faults_injected > 0  # the sweep actually hurt

    def test_patched_pipeline_exact(self):
        reference = _train_sync("local", 6, None)
        candidate = _train_sync("local", 6, PrefetchConfig(lookahead=2))
        _assert_identical(reference, candidate)

    def test_no_extra_entries_created(self):
        """Horizon clipping: prefetch never materialises future keys."""
        reference = _train_sync("local", 2, None)
        candidate = _train_sync("local", 2, PrefetchConfig(lookahead=8))
        assert (
            reference[0].num_entries == candidate[0].num_entries
        )


class TestAsynchronousEquivalence:
    def _train(self, seed, prefetch):
        backend = _backend("local", seed)
        model = DeepFM(
            FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed
        )
        dataset = CriteoSynthetic(
            num_fields=FIELDS, vocab_per_field=150, seed=seed
        )
        trainer = AsynchronousTrainer(
            backend,
            model,
            dataset,
            num_workers=2,
            batch_size=8,
            staleness=1,
            dense_optimizer=Adam(1e-2),
            prefetch=prefetch,
        )
        trainer.run_steps(12)
        return backend, model, list(trainer.loss_history)

    @pytest.mark.parametrize("lookahead", [1, 3])
    def test_async_pipelined_matches_serial(self, lookahead):
        _assert_identical(
            self._train(5, None),
            self._train(5, PrefetchConfig(lookahead=lookahead)),
        )


class TestMaintainParity:
    """Satellite: maintain() counters agree across the wire."""

    def _drive(self, backend):
        rng = np.random.default_rng(2)
        rounds = []
        for batch in range(8):
            keys = sorted(rng.choice(80, size=10, replace=False).tolist())
            backend.pull(keys, batch)
            rounds.append(backend.maintain(batch))
            backend.push(
                keys, rng.normal(0, 0.1, (10, DIM)).astype(np.float32), batch
            )
        return rounds

    def test_remote_counters_match_local(self):
        local_rounds = self._drive(_backend("local", 8))
        remote_rounds = self._drive(_backend("remote", 8))
        for local, remote in zip(local_rounds, remote_rounds):
            assert [r.processed for r in local] == [r.processed for r in remote]
            assert [r.loads for r in local] == [r.loads for r in remote]
            assert [r.flushes for r in local] == [r.flushes for r in remote]
            assert [r.evictions for r in local] == [
                r.evictions for r in remote
            ]

    def test_faulty_wire_counters_well_formed(self):
        """Duplicated/retried pulls may replay access records, which can
        only inflate ``processed`` — never lose a round's counters (the
        per-batch reply cache replays them on retried triggers)."""
        local_rounds = self._drive(_backend("local", 8))
        faulty_rounds = self._drive(_backend("remote_faulty", 8))
        assert len(faulty_rounds) == len(local_rounds)
        local_total = sum(r.processed for rnd in local_rounds for r in rnd)
        faulty_total = sum(r.processed for rnd in faulty_rounds for r in rnd)
        assert faulty_total >= local_total

    def test_remote_checkpoint_parity(self):
        local = _backend("local", 8)
        remote = _backend("remote", 8)
        for backend in (local, remote):
            backend.pull([1, 2, 3], 0)
            backend.maintain(0)
            backend.push([1, 2, 3], np.ones((3, DIM), dtype=np.float32), 0)
            assert backend.barrier_checkpoint() == 0
            assert backend.latest_completed_batch == 0


class TestRecoveryWithPrefetch:
    def test_crash_recover_resume_identical(self):
        """A pipelined run crash-recovers to the same weights as serial."""

        def run(prefetch):
            seed = 12
            server_config, cache_config = _configs(seed)
            optimizer = PSAdagrad(lr=0.05)
            backend = OpenEmbeddingServer(server_config, cache_config, optimizer)
            model = DeepFM(
                FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed
            )
            dataset = CriteoSynthetic(
                num_fields=FIELDS, vocab_per_field=150, seed=seed
            )
            trainer = SynchronousTrainer(
                backend,
                model,
                dataset,
                num_workers=2,
                batch_size=12,
                dense_optimizer=Adam(1e-2),
                checkpoint_every=4,
                prefetch=prefetch,
            )
            trainer.train(9)
            pools, _, dense = trainer.crash()
            model2 = DeepFM(
                FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed
            )
            recovered = SynchronousTrainer.recover(
                pools,
                dense,
                model=model2,
                dataset=dataset,
                server_config=server_config,
                cache_config=cache_config,
                ps_optimizer=PSAdagrad(lr=0.05),
                num_workers=2,
                batch_size=12,
                dense_optimizer=Adam(1e-2),
                checkpoint_every=4,
                prefetch=prefetch,
            )
            recovered.train(15 - recovered.next_batch)
            return recovered

        serial = run(None)
        pipelined = run(PrefetchConfig(lookahead=3))
        assert pipelined.next_batch == serial.next_batch == 15
        a = serial.backend.state_snapshot()
        b = pipelined.backend.state_snapshot()
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
