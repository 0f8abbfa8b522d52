"""DRAM-PS and PMem-Hash move rows as blocks (``baselines/block.py``).

``tests/test_baselines.py`` holds each system to its paper role; these
cases pin what the block form adds: keys through one hash index, rows in
an arena or a slab, one initializer call per pull, one segment-sum and
one ``apply_batch`` per push — no Python step per key.
"""

import numpy as np
import pytest

from repro.baselines import DRAMPSNode, PMemHashNode
from repro.config import CacheConfig, ServerConfig
from repro.core.initializer import key_seeded_rows
from repro.core.optimizers import PSAdagrad
from repro.core.ps_node import PSNode
from repro.errors import CheckpointError

DIM = 8
BASELINES = pytest.mark.parametrize(
    "node_cls", [DRAMPSNode, PMemHashNode], ids=["dram_ps", "pmem_hash"]
)


def server_config(**overrides):
    return ServerConfig(
        embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=5, **overrides
    )


class TestBlocks:
    @BASELINES
    def test_a_pull_that_outgrows_the_index_and_the_rows(self, node_cls):
        """A thousand new keys in one pull: the index columns and the row
        store both double several times mid-block."""
        node = node_cls(server_config(), PSAdagrad())
        keys = np.random.default_rng(1).choice(2**40, 1000, replace=False)
        result = node.pull(keys, 0)
        assert result.created == 1000 and node.num_entries == 1000
        assert np.array_equal(result.weights, key_seeded_rows(5, keys, 0.01, DIM))
        again = node.pull(keys[::-1], 1)
        assert np.array_equal(again.weights, result.weights[::-1])

    @BASELINES
    def test_duplicate_gradients_sum_to_the_caches_bits(self, node_cls):
        """Repeated keys in a push are summed in occurrence order before
        one Adagrad step: bit for bit what the PMem-OE cache does."""
        rng = np.random.default_rng(2)
        baseline = node_cls(server_config(), PSAdagrad(lr=0.1))
        oe = PSNode(0, server_config(), CacheConfig(capacity_bytes=1 << 16), PSAdagrad(lr=0.1))
        for batch in range(6):
            keys = rng.integers(0, 30, 40)  # heavy repetition
            grads = rng.standard_normal((40, DIM)).astype(np.float32)
            for node in (baseline, oe):
                node.pull(keys, batch)
                node.maintain(batch)
                assert node.push(keys, grads, batch) == len(np.unique(keys))
        ours, theirs = baseline.state_snapshot(), oe.state_snapshot()
        assert set(ours) == set(theirs)
        for key, weights in theirs.items():
            assert np.array_equal(ours[key], weights), key

    @BASELINES
    def test_pull_counts_by_where_the_rows_live(self, node_cls):
        node = node_cls(server_config())
        first = node.pull([4, 4, 9], 0)
        second = node.pull([4, 9, 11], 1)
        assert (first.created, second.created) == (2, 1)
        found = (first.hits + first.misses, second.hits + second.misses)
        assert found == (1, 2)
        assert (second.hits == 0) == (node_cls is PMemHashNode)
        assert node.metrics.cache.hits + node.metrics.cache.misses == 3


class TestDRAMPS:
    def test_a_block_the_budget_cannot_hold_is_refused_whole(self):
        node = DRAMPSNode(server_config(), dram_capacity_bytes=3 * DIM * 4)
        node.pull([1, 2], 0)
        with pytest.raises(MemoryError):
            node.pull([2, 3, 4], 1)
        assert node.num_entries == 2 and len(node.arena) == 2

    def test_lookup_serves_the_checkpoint_and_the_initializer(self):
        node = DRAMPSNode(server_config())
        node.pull([1, 2], 0)
        node.push([1, 2], np.ones((2, DIM), np.float32), 0)
        node.checkpoint()
        checkpointed = node.state_snapshot()
        node.pull([1], 1)
        node.push([1], np.ones((1, DIM), np.float32), 1)  # past the checkpoint
        served = node.lookup([2, 7, 1])
        assert (served.snapshot_id, served.hits, served.cold) == (0, 2, 1)
        assert np.array_equal(served.weights[0], checkpointed[2])
        assert np.array_equal(served.weights[1], key_seeded_rows(5, [7], 0.01, DIM)[0])
        assert np.array_equal(served.weights[2], checkpointed[1])
        with pytest.raises(CheckpointError):
            node.lookup([1], 1)

    def test_a_checkpoint_dumps_the_keys_marked_since_the_last(self):
        """Created and pushed keys are marked in blocks; the dump takes
        each distinct one once."""
        node = DRAMPSNode(server_config())
        node.pull([3, 1, 3, 2], 0)
        node.push([1, 1], np.ones((2, DIM), np.float32), 0)
        assert node.dirty_count == 3
        assert node.checkpoint().entries_written == 3
        node.push([2, 2, 2], np.ones((3, DIM), np.float32), 1)
        assert node.checkpoint(1).entries_written == 1
        recovered, batch = DRAMPSNode.recover(node.crash(), server_config())
        assert batch == 1 and recovered.dirty_count == 0
        assert recovered.num_entries == 3


class TestPMemHash:
    def test_rows_are_rewritten_in_place(self):
        """One slab slot per key however many pushes: never versioned."""
        node = PMemHashNode(server_config())
        keys = np.arange(50)
        node.pull(keys, 0)
        for batch in range(5):
            node.push(keys[batch:], np.ones((50 - batch, DIM), np.float32), batch)
        assert node.slab.rows == node.num_entries == 50
        assert node.pool.used_bytes == 50 * node.entry_bytes
        assert node.metrics.pmem_flush_entries == sum(50 - batch for batch in range(5))
        # Each slot's header says which batch last wrote it.
        slots = node.index.columns.row[node.index.lookup(np.arange(5, dtype=np.uint64))]
        assert node.slab.batch[slots].tolist() == [0, 1, 2, 3, 4]

    def test_lookup_reads_the_live_slab(self):
        node = PMemHashNode(server_config())
        node.pull([1, 2], 0)
        node.push([1], np.ones((1, DIM), np.float32), 0)
        served = node.lookup([1, 2, 3], 0)
        assert (served.hits, served.cold) == (2, 1)
        assert np.array_equal(served.weights[:2], node.pull([1, 2], 1).weights)
        assert np.array_equal(served.weights[2], key_seeded_rows(5, [3], 0.01, DIM)[0])

    def test_the_surviving_state_is_the_slab(self):
        node = PMemHashNode(server_config())
        node.pull([8, 9], 0)
        node.push([9], np.ones((1, DIM), np.float32), 0)
        live = node.state_snapshot()
        node.crash()
        surviving = node.surviving_state()
        assert set(surviving) == {8, 9}
        for key in (8, 9):
            assert np.array_equal(surviving[key], live[key])


class TestNoPerKeyPython:
    """A warm pull + push executes the same bytecode in ``baselines/``
    for 8 192 keys as for 256."""

    @staticmethod
    def warm_step_opcodes(node_cls, num_keys: int) -> int:
        from tests.test_hotpath_equivalence import TestNoPerKeyPython as guard

        keys = np.random.default_rng(num_keys).choice(2**40, num_keys, replace=False)
        grads = np.ones((num_keys, DIM), dtype=np.float32)
        node = node_cls(server_config(), PSAdagrad())
        node.pull(keys, 0)
        node.push(keys, grads, 0)

        def warm_step():
            node.pull(keys, 1)
            node.push(keys, grads, 1)

        opcodes = guard.count(warm_step, where=("/repro/baselines/",))
        assert node.metrics.entries_created == num_keys
        return opcodes

    @BASELINES
    def test_opcode_count_does_not_grow_with_the_batch(self, node_cls):
        small = self.warm_step_opcodes(node_cls, 256)
        large = self.warm_step_opcodes(node_cls, 8192)
        assert small > 50 and large == small, (small, large)
