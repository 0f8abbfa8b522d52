"""Stateful property testing of the sharded server (hypothesis).

Beyond the single-node machine, this one exercises the *distributed*
subtleties: per-shard checkpoint completion racing ahead of the
cluster, external retention barriers, and whole-cluster crash/recovery
to the newest checkpoint completed by every shard.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import CacheConfig, ServerConfig
from repro.core.server import OpenEmbeddingServer
from repro.core.optimizers import PSSGD
from tests.harness.keyed_store import keyed

DIM = 2
NUM_NODES = 3
KEYS = st.lists(st.integers(0, 11), min_size=1, max_size=5, unique=True)
SERVER_CONFIG = ServerConfig(
    num_nodes=NUM_NODES, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=31
)
CACHE_CONFIG = CacheConfig(capacity_bytes=2 * DIM * 4)
LR = 0.25


def initial_weights(key: int) -> np.ndarray:
    rng = np.random.default_rng((SERVER_CONFIG.seed, key))
    return rng.uniform(-0.01, 0.01, DIM).astype(np.float32)


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = OpenEmbeddingServer(SERVER_CONFIG, CACHE_CONFIG, PSSGD(lr=LR))
        self.reference: dict[int, np.ndarray] = {}
        self.snapshots: dict[int, dict[int, np.ndarray]] = {}
        self.batch = 0

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    @rule(keys=KEYS, grad=st.floats(-1.0, 1.0, allow_nan=False, width=32))
    def train_batch(self, keys, grad):
        self.server.pull(keys, self.batch)
        self.server.maintain(self.batch)
        grads = np.full((len(keys), DIM), grad, dtype=np.float32)
        self.server.push(keys, grads, self.batch)
        for key in keys:
            if key not in self.reference:
                self.reference[key] = initial_weights(key)
            self.reference[key] = self.reference[key] - np.float32(LR) * grads[0]
        self.batch += 1

    @precondition(
        lambda self: self.batch - 1
        > max(n.coordinator.last_completed for n in self.server.nodes)
        and all(
            not n.coordinator.queue.pending()
            or n.coordinator.queue.pending()[-1] < self.batch - 1
            for n in self.server.nodes
        )
        and self.batch > 0
    )
    @rule()
    def request_cluster_checkpoint(self):
        batch_id = self.batch - 1
        self.server.request_checkpoint(batch_id)
        self.snapshots[batch_id] = {
            key: np.array(weights, copy=True)
            for key, weights in self.reference.items()
        }

    @precondition(
        lambda self: any(n.coordinator.head() is not None for n in self.server.nodes)
    )
    @rule(node_index=st.integers(0, NUM_NODES - 1))
    def one_shard_races_ahead(self, node_index):
        """Complete pending checkpoints on ONE shard only — creating the
        straggler scenario the external barrier exists for."""
        self.server.nodes[node_index].cache.complete_pending_checkpoints()
        self.server._sync_external_barriers()

    @precondition(
        lambda self: any(n.coordinator.head() is not None for n in self.server.nodes)
    )
    @rule()
    def complete_everywhere(self):
        self.server.complete_pending_checkpoints()

    @rule()
    def crash_and_recover(self):
        global_ckpt = self.server.global_completed_checkpoint
        pools = self.server.crash()
        if global_ckpt < 0:
            self.server = OpenEmbeddingServer(
                SERVER_CONFIG, CACHE_CONFIG, PSSGD(lr=LR)
            )
            self.reference = {}
            self.snapshots = {}
            self.batch = 0
            return
        self.server, reports = OpenEmbeddingServer.recover(
            pools, SERVER_CONFIG, CACHE_CONFIG, PSSGD(lr=LR)
        )
        assert all(r.checkpoint_batch_id == global_ckpt for r in reports)
        expected = self.snapshots[global_ckpt]
        got = self.server.state_snapshot()
        assert set(got) == set(expected)
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights), key
        self.reference = {
            key: np.array(weights, copy=True) for key, weights in expected.items()
        }
        self.batch = global_ckpt + 1
        self.snapshots = {
            b: snap for b, snap in self.snapshots.items() if b <= global_ckpt
        }

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @invariant()
    def weights_match_reference(self):
        for key, expected in self.reference.items():
            assert np.array_equal(self.server.read_weights(key), expected), key

    @invariant()
    def global_checkpoint_is_recoverable(self):
        """Every shard still retains the versions of the cluster-wide
        checkpoint, even if it completed newer ones on its own."""
        global_ckpt = self.server.global_completed_checkpoint
        if global_ckpt < 0:
            return
        expected = self.snapshots[global_ckpt]
        for node in self.server.nodes:
            for entry in node.cache.index.entries():
                if entry.key not in expected:
                    continue
                versions = keyed(node).versions_of(entry.key)
                in_dram_covered = entry.in_dram and entry.version <= global_ckpt
                durable_covered = any(v <= global_ckpt for v in versions)
                assert in_dram_covered or durable_covered, (
                    f"key {entry.key}: no recoverable state <= {global_ckpt}"
                )

    @invariant()
    def structures_consistent(self):
        for node in self.server.nodes:
            node.cache.validate()


ServerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestServerMachine = ServerMachine.TestCase
