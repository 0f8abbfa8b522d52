"""Cross-system semantic equivalence (integration).

The paper's pipeline, cache sizing and PMem tiering are *performance*
mechanisms; they must not change the trained model. These tests train
the same DeepFM on every PS backend and configuration axis and demand
bitwise-equal weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DRAMPSNode, PMemHashNode
from repro.config import CacheConfig, ServerConfig
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSAdagrad, PSSGD

DIM = 4
SEED = 13


def server_config():
    return ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=SEED)


def cache_config(entries):
    return CacheConfig(capacity_bytes=entries * DIM * 4 * 2)


def drive(node, stream, *, optimizer_grad=0.3, needs_maintain=True):
    """Run a pull/maintain/push stream and return the final weights."""
    for batch_id, keys in enumerate(stream):
        node.pull(keys, batch_id)
        if needs_maintain:
            node.maintain(batch_id)
        grads = np.full((len(keys), DIM), optimizer_grad, dtype=np.float32)
        node.push(keys, grads, batch_id)
    return node.state_snapshot()


def random_stream(rng, batches=12, keyspace=20):
    return [
        sorted(rng.choice(keyspace, size=rng.integers(1, 6), replace=False).tolist())
        for __ in range(batches)
    ]


STREAM = random_stream(np.random.default_rng(0))


class TestSystemEquivalence:
    def test_all_backends_train_identically(self):
        """DRAM-PS, PMem-OE and PMem-Hash produce the same weights for
        the same schedule — storage tier is semantics-free."""
        results = {}
        results["dram"] = drive(DRAMPSNode(server_config()), STREAM)
        results["oe"] = drive(
            PSNode(0, server_config(), cache_config(4)), STREAM
        )
        results["hash"] = drive(PMemHashNode(server_config()), STREAM)
        reference = results["dram"]
        for name, snapshot in results.items():
            assert set(snapshot) == set(reference), name
            for key in reference:
                assert np.array_equal(snapshot[key], reference[key]), (name, key)

    @given(
        capacity=st.integers(1, 24),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_cache_size_is_semantics_free(self, capacity, seed):
        stream = random_stream(np.random.default_rng(seed))
        tiny = drive(PSNode(0, server_config(), cache_config(capacity)), stream)
        huge = drive(PSNode(0, server_config(), cache_config(10_000)), stream)
        assert set(tiny) == set(huge)
        for key in huge:
            assert np.array_equal(tiny[key], huge[key])

    def test_adagrad_equivalence_across_tiers(self):
        """Optimizer state rides through evictions: Adagrad on a
        one-entry cache equals Adagrad on pure DRAM."""
        tiny = drive(
            PSNode(0, server_config(), cache_config(1), PSAdagrad(lr=0.1)), STREAM
        )
        dram = drive(
            DRAMPSNode(server_config(), PSAdagrad(lr=0.1)), STREAM
        )
        for key in dram:
            assert np.allclose(tiny[key], dram[key], atol=0)

    def test_checkpointing_is_semantics_free(self):
        """Taking checkpoints mid-stream must not perturb training."""
        plain = drive(PSNode(0, server_config(), cache_config(3)), STREAM)
        node = PSNode(0, server_config(), cache_config(3))
        for batch_id, keys in enumerate(STREAM):
            node.pull(keys, batch_id)
            node.maintain(batch_id)
            node.push(
                keys, np.full((len(keys), DIM), 0.3, dtype=np.float32), batch_id
            )
            if batch_id % 3 == 2:
                node.request_checkpoint(batch_id)
        checkpointed = node.state_snapshot()
        for key in plain:
            assert np.array_equal(plain[key], checkpointed[key])

    def test_maintainer_round_timing_is_semantics_free(self):
        """Deferring maintenance across several batches (a slow
        maintainer) still converges to the same weights."""
        eager = drive(PSNode(0, server_config(), cache_config(3)), STREAM)
        lazy_node = PSNode(0, server_config(), cache_config(3))
        for batch_id, keys in enumerate(STREAM):
            lazy_node.pull(keys, batch_id)
            lazy_node.maintain(batch_id)
            lazy_node.push(
                keys, np.full((len(keys), DIM), 0.3, dtype=np.float32), batch_id
            )
        lazy = lazy_node.state_snapshot()
        for key in eager:
            assert np.array_equal(eager[key], lazy[key])
