"""Property-based batch-consistency tests (hypothesis).

The paper's correctness requirement (Observation 2): recovery must
restore *exactly* the model state as of the checkpointed batch — batch
atomicity — for any access pattern, any checkpoint schedule and any
crash point. We drive a PS node with hypothesis-generated schedules and
check the recovered weights bitwise against an independent reference
model (a plain dict replaying the same updates).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSSGD
from repro.core.recovery import recover_node
from repro.errors import RecoveryError
from tests.harness.keyed_store import keyed

DIM = 2
NUM_KEYS = 8


def schedule_strategy():
    """A training schedule: per batch, the key set and whether a
    checkpoint is requested right after the batch."""
    batch = st.tuples(
        st.lists(st.integers(0, NUM_KEYS - 1), min_size=1, max_size=5, unique=True),
        st.booleans(),
    )
    return st.lists(batch, min_size=2, max_size=14)


def run_schedule(schedule, capacity_entries, crash_after):
    """Run the node and a reference dict side by side; crash; recover.

    Returns (durable_checkpoint_id, recovered_state, reference_snapshots)
    or None when recovery is legitimately impossible (no checkpoint ever
    completed before the crash).
    """
    server_config = ServerConfig(
        embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=11
    )
    cache_config = CacheConfig(capacity_bytes=capacity_entries * DIM * 4)
    node = PSNode(0, server_config, cache_config, PSSGD(lr=0.25))
    reference: dict[int, np.ndarray] = {}
    snapshots: dict[int, dict[int, np.ndarray]] = {}

    for batch_id, (keys, request_ckpt) in enumerate(schedule):
        if batch_id == crash_after:
            break
        result = node.pull(keys, batch_id)
        node.maintain(batch_id)
        grads = np.full((len(keys), DIM), 0.5, dtype=np.float32)
        node.push(keys, grads, batch_id)
        for i, key in enumerate(keys):
            if key not in reference:
                rng = np.random.default_rng((11, key))
                reference[key] = rng.uniform(-0.01, 0.01, DIM).astype(np.float32)
            reference[key] = reference[key] - 0.25 * grads[i]
        if request_ckpt and batch_id > node.coordinator.last_completed:
            pending = node.coordinator.queue.pending()
            if not pending or pending[-1] < batch_id:
                node.coordinator.request(batch_id)
                snapshots[batch_id] = {
                    key: np.array(weights, copy=True)
                    for key, weights in reference.items()
                }

    pool = node.crash()
    durable = pool.root.get("checkpointed_batch_id", -1)
    if durable < 0:
        with pytest.raises(RecoveryError):
            recover_node(pool, server_config, cache_config, PSSGD(lr=0.25))
        return None
    recovered, report = recover_node(
        pool, server_config, cache_config, PSSGD(lr=0.25)
    )
    assert report.checkpoint_batch_id == durable
    return durable, recovered.state_snapshot(), snapshots


class TestBatchConsistency:
    @given(
        schedule=schedule_strategy(),
        capacity=st.integers(1, 6),
        crash_after=st.integers(0, 14),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovery_restores_exact_checkpoint_state(
        self, schedule, capacity, crash_after
    ):
        outcome = run_schedule(schedule, capacity, crash_after)
        if outcome is None:
            return  # no completed checkpoint: recovery correctly refused
        durable, recovered_state, snapshots = outcome
        assert durable in snapshots, "completed a checkpoint that was never requested"
        expected = snapshots[durable]
        assert set(recovered_state) == set(expected)
        for key, weights in expected.items():
            assert np.array_equal(recovered_state[key], weights), (
                f"key {key} mismatch at checkpoint {durable}"
            )

    @given(
        schedule=schedule_strategy(),
        capacity=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_barrier_checkpoint_always_recoverable(self, schedule, capacity):
        """A forced (barrier) checkpoint at the end must always recover
        to the final state."""
        server_config = ServerConfig(
            embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=11
        )
        cache_config = CacheConfig(capacity_bytes=capacity * DIM * 4)
        node = PSNode(0, server_config, cache_config, PSSGD(lr=0.25))
        last_batch = -1
        for batch_id, (keys, __) in enumerate(schedule):
            node.pull(keys, batch_id)
            node.maintain(batch_id)
            node.push(keys, np.full((len(keys), DIM), 0.5, dtype=np.float32), batch_id)
            last_batch = batch_id
        expected = node.state_snapshot()
        node.barrier_checkpoint(last_batch)
        pool = node.crash()
        recovered, report = recover_node(
            pool, server_config, cache_config, PSSGD(lr=0.25)
        )
        assert report.checkpoint_batch_id == last_batch
        got = recovered.state_snapshot()
        assert set(got) == set(expected)
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights)


class TestFlushInvariant:
    @given(schedule=schedule_strategy(), capacity=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_version_never_outruns_durability(self, schedule, capacity):
        """Whenever an entry's version has advanced past an outstanding
        checkpoint id, a durable version at or below that id must exist
        (the flush-before-advance invariant Algorithm 2 maintains)."""
        server_config = ServerConfig(
            embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=11
        )
        cache_config = CacheConfig(capacity_bytes=capacity * DIM * 4)
        node = PSNode(0, server_config, cache_config, PSSGD(lr=0.25))
        created_at: dict[int, int] = {}
        for batch_id, (keys, request_ckpt) in enumerate(schedule):
            for key in keys:
                created_at.setdefault(key, batch_id)
            node.pull(keys, batch_id)
            node.maintain(batch_id)
            node.push(keys, np.full((len(keys), DIM), 0.5, dtype=np.float32), batch_id)
            if request_ckpt and batch_id > node.coordinator.last_completed:
                pending = node.coordinator.queue.pending()
                if not pending or pending[-1] < batch_id:
                    node.coordinator.request(batch_id)
            for cp in node.coordinator.queue.pending():
                for entry in node.cache.index.entries():
                    if created_at[entry.key] > cp:
                        continue  # born after the checkpoint: exempt
                    if entry.version > cp:
                        eligible = [
                            v for v in keyed(node).versions_of(entry.key) if v <= cp
                        ]
                        assert eligible, (
                            f"entry {entry.key} at version {entry.version} has no "
                            f"durable state <= outstanding checkpoint {cp}"
                        )
