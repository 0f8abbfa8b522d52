"""DRAM-PS's incremental checkpoint (Table IV's CheckFreq baseline):
dirty tracking, the versioned dump, its one-root-write commit and
recovery."""

import numpy as np
import pytest

from repro.baselines import DRAMPSNode
from repro.config import ServerConfig
from repro.core.initializer import key_seeded_rows
from repro.errors import RecoveryError
from repro.pmem.pool import PoolRoot

DIM = 2
CONFIG = ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 16, seed=7)


@pytest.fixture
def node():
    return DRAMPSNode(CONFIG)


def train(node, keys, batch_id):
    """One pull and one push of ``keys`` at ``batch_id``."""
    node.pull(keys, batch_id)
    node.push(keys, np.full((len(keys), DIM), 0.5, np.float32), batch_id)


def assert_bit_equal(state, expected):
    assert sorted(state) == sorted(expected)
    for key, weights in expected.items():
        assert state[key].tobytes() == weights.tobytes(), key


class TestDirtyTracking:
    def test_dirty_accumulates_and_clears(self, node):
        train(node, [1, 2], 0)
        assert node.dirty_count == 2
        stats = node.checkpoint(0)
        assert stats.entries_written == 2
        assert node.dirty_count == 0

    def test_duplicates_counted_once(self, node):
        node.pull([1, 1, 1], 0)
        node.push([1], np.ones((1, DIM), np.float32), 0)
        node.push([1, 1], np.ones((2, DIM), np.float32), 0)
        assert node.dirty_count == 1

    def test_delta_only_on_second_checkpoint(self, node):
        train(node, [1, 2, 3], 0)
        node.checkpoint(0)
        train(node, [2], 1)
        stats = node.checkpoint(1)
        assert stats.entries_written == 1
        assert stats.bytes_written == node.entry_bytes == 8


class TestRestore:
    def test_restore_merges_deltas(self, node):
        train(node, [1, 2], 0)
        node.checkpoint(0)
        train(node, [1], 1)
        node.checkpoint(1)
        expected = node.state_snapshot()
        recovered, batch_id = DRAMPSNode.recover(node.crash(), CONFIG)
        assert batch_id == 1
        assert_bit_equal(recovered.state_snapshot(), expected)

    def test_restore_without_checkpoint(self, node):
        train(node, [1], 0)
        with pytest.raises(RecoveryError):
            DRAMPSNode.recover(node.crash(), CONFIG)

    def test_restore_from_pool_after_crash(self, node):
        train(node, [1], 3)
        node.checkpoint(3)
        expected = node.state_snapshot()
        train(node, [1, 4], 4)  # past the checkpoint: lost with DRAM
        recovered, batch_id = DRAMPSNode.recover(node.crash(), CONFIG)
        assert batch_id == 3 and recovered.latest_completed_batch == 3
        assert_bit_equal(recovered.state_snapshot(), expected)

    def test_stats_history(self, node):
        history = []
        for batch_id in range(2):
            train(node, [batch_id], batch_id)
            history.append(node.checkpoint(batch_id))
        assert [stats.batch_id for stats in history] == [0, 1]
        assert all(stats.sim_seconds > 0 for stats in history)
        assert node.checkpoints_completed == node.metrics.checkpoints_completed == 2


class TestReadEntries:
    def test_masks_the_keys_never_checkpointed(self, node):
        train(node, np.array([2, 1, 2], dtype=np.uint64), 0)
        node.checkpoint(0)
        checkpointed = node.state_snapshot()
        node.pull([5], 1)  # created after the checkpoint
        served = node.lookup(np.array([2, 5, 1], dtype=np.uint64))
        assert (served.hits, served.cold) == (2, 1)
        assert served.weights[0].tobytes() == checkpointed[2].tobytes()
        assert served.weights[1].tobytes() == key_seeded_rows(7, [5], 0.01, DIM)[0].tobytes()
        assert served.weights[2].tobytes() == checkpointed[1].tobytes()


class PowerLoss(Exception):
    pass


class TestCommit:
    """The dump's versions are committed by one root write; until then
    the previous checkpoint's versions are retained and are what a
    crash recovers and a lookup serves."""

    def torn_dump(self, node, monkeypatch):
        """Checkpoint 0, train past it, and lose power at the next
        dump's first root write; returns checkpoint 0's state."""
        train(node, [1, 2], 0)
        node.checkpoint(0)
        checkpointed = node.state_snapshot()
        train(node, [1], 1)

        def power_loss(self, name, value):
            raise PowerLoss(name)

        with monkeypatch.context() as patch:
            patch.setattr(PoolRoot, "set", power_loss)
            with pytest.raises(PowerLoss):
                node.checkpoint(1)
        return checkpointed

    def test_a_torn_commit_recovers_the_previous_checkpoint(self, node, monkeypatch):
        checkpointed = self.torn_dump(node, monkeypatch)
        recovered, batch_id = DRAMPSNode.recover(node.crash(), CONFIG)
        assert batch_id == 0
        assert_bit_equal(recovered.state_snapshot(), checkpointed)

    def test_an_uncommitted_dump_is_not_served(self, node, monkeypatch):
        checkpointed = self.torn_dump(node, monkeypatch)
        served = node.lookup([1, 2])
        assert served.snapshot_id == 0
        assert served.weights.tobytes() == np.stack([checkpointed[1], checkpointed[2]]).tobytes()
        # The next dump takes the uncommitted version's slot over.
        node.checkpoint(1)
        assert node.store.total_versions() == 2

    def test_a_commit_keeps_one_version_per_checkpointed_key(self, node):
        """The space manager recycles the previous checkpoint's versions
        once the new one is done."""
        train(node, [1, 2, 3], 0)
        node.checkpoint(0)
        assert node.store.total_versions() == 3
        train(node, [2], 1)
        node.checkpoint(1)
        assert node.store.total_versions() == 3
        train(node, [2, 4], 2)
        node.checkpoint(2)
        assert node.store.total_versions() == 4
        assert node.store.pool.used_bytes == 4 * node.entry_bytes
