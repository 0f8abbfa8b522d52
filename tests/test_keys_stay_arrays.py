"""Keys stay arrays from the trainer to the backend.

``PSEmbedding`` and both trainers hand ``backend.pull`` / ``push`` the
backend's :class:`~repro.core.sharding.KeyPlan` of the key matrix —
every field an array — or, for a backend that builds no plans, the
flattened key ``ndarray``: never a Python list of ints for the
partitioner to turn straight back into an array.
"""

import functools

import numpy as np
import pytest

from repro.baselines.dram_ps import DRAMPSNode
from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.core.optimizers import PSSGD
from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import KeyPlan
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.embedding import PSEmbedding
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.network.frontend import RemotePSClient

DIM, FIELDS, BATCH = 4, 3, 8
SERVER_CONFIG = ServerConfig(num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22)

BACKENDS = {
    "local": lambda: OpenEmbeddingServer(SERVER_CONFIG, CacheConfig(), PSSGD(lr=0.05)),
    "rpc": lambda: RemotePSClient(SERVER_CONFIG, CacheConfig(), PSSGD(lr=0.05)),
    "dram_ps": lambda: DRAMPSNode(ServerConfig(embedding_dim=DIM), PSSGD(lr=0.05)),
}


def assert_flat_keys(keys) -> None:
    assert isinstance(keys, np.ndarray), f"got a {type(keys).__name__}"
    assert keys.ndim == 1 and keys.dtype.kind in "iu"


def spy_on(backend, *names: str, plans: bool | None = None) -> list[tuple[str, int]]:
    """Wrap ``backend``'s calls: every one must receive a plan whose
    fields are arrays (``plans``; by default, a backend that builds
    them) or a flat key ``ndarray``. Returns the log of ``(name, number
    of keys)``."""
    calls: list[tuple[str, int]] = []
    plans = hasattr(backend, "plan") if plans is None else plans

    def wrap(name, real):
        @functools.wraps(real)  # the async trainer reads the signature
        def spy(keys, *args, **kwargs):
            assert isinstance(keys, KeyPlan) == plans, f"{name} got a {type(keys).__name__}"
            if plans:
                for array in (keys.unique, keys.inverse, keys.first):
                    assert_flat_keys(array)
                for __, __, shard_keys in keys.shards:
                    assert_flat_keys(shard_keys)
            else:
                assert_flat_keys(keys)
            calls.append((name, len(keys)))
            return real(keys, *args, **kwargs)

        return spy

    for name in names:
        setattr(backend, name, wrap(name, getattr(backend, name)))
    return calls


def model_and_data():
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=40, seed=3)
    return DeepFM(FIELDS, DIM, hidden=(8,), use_first_order=False, seed=1), dataset


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestArraysThrough:
    def test_embedding_pull_and_push(self, backend_name):
        backend = BACKENDS[backend_name]()
        calls = spy_on(backend, "pull", "push")
        embedding = PSEmbedding(backend, DIM)
        keys = np.array([[1, 2, 3], [3, 4, 2**40]])
        pulled = embedding.pull(keys, 0)
        backend.maintain(0)
        embedding.push(keys, np.ones_like(pulled), 0)
        assert calls == [("pull", 6), ("push", 6)]

    def test_synchronous_trainer(self, backend_name):
        backend = BACKENDS[backend_name]()
        calls = spy_on(backend, "pull", "push")
        model, dataset = model_and_data()
        SynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=BATCH, dense_optimizer=Adam(1e-2)
        ).train(3)
        assert [name for name, __ in calls] == ["pull", "pull", "push", "push"] * 3
        assert {n for __, n in calls} == {BATCH * FIELDS}

    def test_synchronous_trainer_pipeline_push(self, backend_name):
        """The lookahead pipeline pulls the keys *it* found missing (its
        own dedup); the trainer's push through it carries the array."""
        backend = BACKENDS[backend_name]()
        calls = spy_on(backend, "push", plans=False)
        model, dataset = model_and_data()
        SynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=BATCH,
            dense_optimizer=Adam(1e-2), prefetch=PrefetchConfig(lookahead=2),
        ).train(3)
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("track_progress", [False, True])
    def test_asynchronous_trainer(self, backend_name, track_progress):
        if track_progress and backend_name == "dram_ps":
            pytest.skip("the baseline takes no worker identity")
        backend = BACKENDS[backend_name]()
        calls = spy_on(backend, "pull", "push")
        model, dataset = model_and_data()
        AsynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=BATCH, staleness=1,
            dense_optimizer=Adam(1e-2), track_progress=track_progress,
        ).run_steps(6)
        assert {"pull", "push"} == {name for name, __ in calls}
        assert {n for __, n in calls} == {BATCH * FIELDS}
