"""Baseline systems: DRAM-PS, PMem-Hash, TensorFlow PS."""

import numpy as np
import pytest

from repro.baselines import DRAMPSNode, PMemHashNode, TensorFlowPS
from repro.config import CacheConfig, ServerConfig
from repro.core.ps_node import PSNode
from repro.errors import ConfigError, KeyNotFoundError, RecoveryError

DIM = 4


def server_config(seed=0, **overrides):
    defaults = dict(
        embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=seed
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def grads(n, value=1.0):
    return np.full((n, DIM), value, dtype=np.float32)


class TestDRAMPS:
    def test_pull_always_hits(self):
        node = DRAMPSNode(server_config())
        node.pull([1, 2], 0)
        result = node.pull([1, 2], 1)
        assert result.hits == 2
        assert result.misses == 0

    def test_same_init_as_openembedding(self):
        """Weight-for-weight comparability across systems."""
        dram = DRAMPSNode(server_config(seed=3))
        oe = PSNode(0, server_config(seed=3), CacheConfig(capacity_bytes=1 << 16))
        dram.pull([7], 0)
        oe.pull([7], 0)
        assert np.array_equal(dram.read_weights(7), oe.read_weights(7))

    def test_push_applies_optimizer(self):
        node = DRAMPSNode(server_config())
        node.pull([1], 0)
        before = node.read_weights(1)
        node.push([1], grads(1), 0)
        assert not np.array_equal(before, node.read_weights(1))

    def test_push_unknown_key_rejected(self):
        node = DRAMPSNode(server_config())
        with pytest.raises(KeyNotFoundError):
            node.push([9], grads(1), 0)

    def test_checkpoint_restore_roundtrip(self):
        node = DRAMPSNode(server_config())
        node.pull([1, 2], 0)
        node.push([1, 2], grads(2), 0)
        node.checkpoint()
        snapshot = node.state_snapshot()
        node.pull([1, 2], 1)
        node.push([1, 2], grads(2), 1)  # past the checkpoint
        pool = node.crash()
        recovered, batch_id = DRAMPSNode.recover(pool, server_config())
        assert batch_id == 0
        restored = recovered.state_snapshot()
        for key, weights in snapshot.items():
            assert np.array_equal(restored[key], weights)

    def test_crash_without_checkpoint_loses_everything(self):
        node = DRAMPSNode(server_config())
        node.pull([1], 0)
        node.push([1], grads(1), 0)
        pool = node.crash()
        with pytest.raises(RecoveryError):
            DRAMPSNode.recover(pool, server_config())

    def test_incremental_second_checkpoint_smaller(self):
        node = DRAMPSNode(server_config())
        keys = list(range(10))
        node.pull(keys, 0)
        node.push(keys, grads(10), 0)
        first = node.checkpoint()
        node.pull([1], 1)
        node.push([1], grads(1), 1)
        second = node.checkpoint()
        assert first.entries_written == 10
        assert second.entries_written == 1

    def test_dram_capacity_enforced(self):
        node = DRAMPSNode(server_config(), dram_capacity_bytes=2 * DIM * 4)
        node.pull([1, 2], 0)
        with pytest.raises(MemoryError):
            node.pull([3], 0)


class TestPMemHash:
    def test_every_access_is_pmem(self):
        node = PMemHashNode(server_config())
        node.pull([1, 2], 0)
        result = node.pull([1, 2], 1)
        assert result.hits == 0
        assert result.misses == 2

    def test_push_rmw(self):
        node = PMemHashNode(server_config())
        node.pull([1], 0)
        before = node.read_weights(1)
        node.push([1], grads(1), 0)
        after = node.read_weights(1)
        assert not np.array_equal(before, after)
        node.crash()
        assert np.array_equal(node.read_weights(1), after)  # durable

    def test_crash_state_mixes_batches(self):
        """Observation 2: durable but NOT batch-consistent. Update half
        the keys in batch 1, crash mid-batch: the surviving state holds
        batch-1 values for some keys and batch-0 for others."""
        node = PMemHashNode(server_config())
        keys = [1, 2, 3, 4]
        node.pull(keys, 0)
        node.push(keys, grads(4), 0)
        state_batch0 = {k: node.read_weights(k) for k in keys}
        node.pull(keys, 1)
        node.push([1, 2], grads(2), 1)  # batch 1 partially applied
        node.crash()
        surviving = node.surviving_state()
        changed = [k for k in keys if not np.array_equal(surviving[k], state_batch0[k])]
        unchanged = [k for k in keys if np.array_equal(surviving[k], state_batch0[k])]
        assert changed == [1, 2]
        assert unchanged == [3, 4]

    def test_unknown_key_push_rejected(self):
        node = PMemHashNode(server_config())
        with pytest.raises(KeyNotFoundError):
            node.push([5], grads(1), 0)


class TestTensorFlowPS:
    def test_single_node_only(self):
        with pytest.raises(ConfigError):
            TensorFlowPS(server_config(num_nodes=2))

    def test_capacity_gate(self):
        ps = TensorFlowPS(server_config(), dram_capacity_bytes=384 << 30)
        assert ps.supports_model_bytes(100 << 30)
        assert not ps.supports_model_bytes(500 << 30)  # the paper's case

    def test_trains_like_dram_ps(self):
        tf_ps = TensorFlowPS(server_config(seed=1))
        dram = DRAMPSNode(server_config(seed=1))
        for node in (tf_ps, dram):
            node.pull([1, 2], 0)
            node.push([1, 2], grads(2), 0)
        for key in (1, 2):
            assert np.array_equal(tf_ps.read_weights(key), dram.read_weights(key))
