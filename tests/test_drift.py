"""Temporal drift workload: rotation mechanics and cache impact."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig, WorkloadConfig
from repro.core.ps_node import PSNode
from repro.errors import ConfigError
from repro.workload.drift import DriftingWorkload


def make_workload(drift=0.2, batches_per_day=4, num_keys=10_000, seed=2):
    return DriftingWorkload(
        WorkloadConfig(num_keys=num_keys, features_per_sample=4, seed=seed),
        drift_fraction=drift,
        batches_per_day=batches_per_day,
    )


class TestRotation:
    def test_no_rotation_within_a_day(self):
        workload = make_workload(batches_per_day=10)
        before = workload.current_hot_keys()
        workload.sample_worker_batches(5, 16)
        assert np.array_equal(before, workload.current_hot_keys())
        assert workload.day == 0

    def test_rotation_at_day_boundary(self):
        workload = make_workload(drift=0.5, batches_per_day=4)
        before = workload.current_hot_keys()
        workload.sample_worker_batches(4, 16)
        assert workload.day == 1
        assert workload.rotations == 1
        after = workload.current_hot_keys()
        assert not np.array_equal(before, after)

    def test_mapping_stays_a_bijection(self):
        workload = make_workload(drift=0.9, batches_per_day=1, num_keys=500)
        for __ in range(10):
            workload.sample_batch_keys(8)
        mapping = workload.distribution._permutation._rank_to_key
        assert sorted(mapping.tolist()) == list(range(500))

    def test_skew_marginals_preserved(self):
        """Drift moves WHICH keys are hot, not HOW hot the head is."""
        workload = make_workload(drift=0.5, batches_per_day=2, num_keys=50_000)
        for __ in range(10):
            workload.sample_batch_keys(32)
        stream = workload.distribution.sample_keys(100_000)
        __, counts = np.unique(stream, return_counts=True)
        counts = np.sort(counts)[::-1]
        head = counts[: max(1, int(0.0005 * 50_000))].sum() / counts.sum()
        assert head == pytest.approx(0.857, abs=0.02)

    def test_zero_drift_is_static(self):
        workload = make_workload(drift=0.0, batches_per_day=1)
        before = workload.current_hot_keys()
        for __ in range(5):
            workload.sample_batch_keys(8)
        assert np.array_equal(before, workload.current_hot_keys())

    def test_deterministic_given_seed(self):
        a = make_workload(seed=7)
        b = make_workload(seed=7)
        for __ in range(6):
            assert np.array_equal(a.sample_batch_keys(16), b.sample_batch_keys(16))

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_workload(drift=1.5)
        with pytest.raises(ConfigError):
            make_workload(batches_per_day=0)
        with pytest.raises(ConfigError):
            make_workload().sample_batch_keys(0)


class TestCacheUnderDrift:
    def test_miss_rate_spikes_then_readapts(self):
        """After a hot-set rotation LRU misses spike, then recovers as
        the new hot keys populate the cache."""
        num_keys = 20_000
        workload = DriftingWorkload(
            WorkloadConfig(num_keys=num_keys, features_per_sample=8, seed=3),
            drift_fraction=0.6,
            batches_per_day=40,
        )
        # Zero rows and zero gradients, as the training simulator runs.
        node = PSNode(
            0,
            ServerConfig(
                embedding_dim=4, pmem_capacity_bytes=1 << 26, seed=3, initializer_scale=0.0
            ),
            CacheConfig(capacity_bytes=400 * 4 * 4),  # ~2% of keys
        )
        cold_per_batch = []
        for batch in range(80):  # day boundary at batch 40
            keys = workload.sample_batch_keys(64)
            result = node.pull(keys, batch)
            node.maintain(batch)
            pushed = keys[np.sort(np.unique(keys, return_index=True)[1])]
            node.push(pushed, np.zeros((len(pushed), 4), dtype=np.float32), batch)
            # "Cold" = anything not served from DRAM: PMem misses plus
            # first-ever accesses (rotated-in hot keys are often new).
            cold_per_batch.append(1.0 - result.hits / result.accesses)
        steady_before = float(np.mean(cold_per_batch[25:40]))
        spike = float(np.mean(cold_per_batch[40:44]))
        steady_after = float(np.mean(cold_per_batch[60:80]))
        assert spike > steady_before * 1.5  # the rotation hurts
        assert steady_after < spike  # LRU adapts to the new hot set
