"""Count-min sketch and the frequency admission filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core.admission import CountMinSketch, FrequencyAdmission
from repro.core.entry import Location
from repro.core.ps_node import PSNode
from repro.core.sharding import mix64
from repro.errors import ConfigError

DIM = 4


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        for key in range(200):
            sketch.add(key)
        sketch.add(42, count=5)
        assert sketch.estimate(42) >= 6

    def test_unseen_key_low_estimate(self):
        sketch = CountMinSketch(width=4096, depth=4)
        for key in range(100):
            sketch.add(key)
        assert sketch.estimate(999_999) <= 1  # collisions only

    def test_halve_ages_counters(self):
        sketch = CountMinSketch()
        sketch.add(1, count=8)
        sketch.halve()
        assert sketch.estimate(1) == 4

    def test_invalid_sizing(self):
        with pytest.raises(ConfigError):
            CountMinSketch(width=0)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        probes=st.lists(st.integers(0, 2**64 - 1), max_size=8),
        width=st.integers(1, 300),
        depth=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_batched_forms_equal_the_per_key_sketch(self, keys, probes, width, depth, seed):
        """``add_many`` / ``estimate_many`` over a block (repeats
        included) equal the per-key count-min sketch, key for key."""
        seeds = [mix64((seed << 8) | row) for row in range(depth)]
        reference = np.zeros((depth, width), dtype=np.uint32)
        for key in keys:
            for row, row_seed in enumerate(seeds):
                reference[row, mix64(key ^ row_seed) % width] += 1

        def expected(key):
            return min(int(reference[row, mix64(key ^ s) % width]) for row, s in enumerate(seeds))

        batched, scalar = CountMinSketch(width, depth, seed), CountMinSketch(width, depth, seed)
        batched.add_many(np.array(keys, dtype=np.uint64))
        for key in keys:
            scalar.add(key)
        asked = keys + probes
        assert batched.estimate_many(np.array(asked, dtype=np.uint64)).tolist() == [
            expected(key) for key in asked
        ]
        assert [scalar.estimate(key) for key in asked] == [expected(key) for key in asked]
        assert batched.total_adds == scalar.total_adds == len(keys)


class TestFrequencyAdmission:
    def test_threshold_zero_admits_everything(self):
        admission = FrequencyAdmission(threshold=0)
        assert all(admission.should_admit(k) for k in range(10))
        assert admission.bypass_rate == 0.0

    def test_cold_key_bypassed_then_admitted(self):
        admission = FrequencyAdmission(threshold=2)
        assert not admission.should_admit(7)  # seen once
        assert not admission.should_admit(7)  # seen twice
        assert admission.should_admit(7)  # estimate 3 > 2
        assert admission.bypassed == 2
        assert admission.admitted == 1

    def test_one_hit_wonders_never_admitted(self):
        admission = FrequencyAdmission(threshold=1, sketch_width=1 << 14)
        bypassed = sum(0 if admission.should_admit(k) else 1 for k in range(500))
        assert bypassed == 500

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            FrequencyAdmission(threshold=-1)

    def test_a_batch_that_crosses_halve_every_halves(self):
        """7 accesses, then 5 more: the total passes 10 without landing
        on it, and the sketch still ages once."""
        admission = FrequencyAdmission(threshold=1, sketch_width=1 << 12, halve_every=10)
        assert admission.admit_many(np.array([7, 7, 7, 7, 1, 2, 3])).tolist() == [
            True, True, True, True, False, False, False,
        ]
        admitted = admission.admit_many(np.array([7, 8, 9, 10, 11]))
        assert admission.sketch.total_adds == 6  # 12, halved
        assert admission.sketch.estimate(7) == 2  # 5, halved
        assert admitted.tolist() == [True, False, False, False, False]
        assert (admission.admitted, admission.bypassed) == (5, 7)


class TestCacheIntegration:
    def _node(self, threshold):
        return PSNode(
            0,
            ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=1),
            CacheConfig(
                capacity_bytes=4 * DIM * 4, admission_threshold=threshold
            ),
        )

    def _cycle(self, node, keys, batch):
        node.pull(keys, batch)
        node.maintain(batch)
        node.push(keys, np.full((len(keys), DIM), 0.1, dtype=np.float32), batch)

    def test_cold_miss_not_promoted(self):
        node = self._node(threshold=2)
        self._cycle(node, [1], 0)
        node.cache.drop_cache()  # push 1 to PMem
        self._cycle(node, [1], 1)  # miss, seen once -> bypassed
        assert node.cache.index.location_of(1) == Location.PMEM

    def test_hot_miss_promoted_after_threshold(self):
        node = self._node(threshold=2)
        self._cycle(node, [1], 0)
        node.cache.drop_cache()
        for batch in (1, 2, 3):
            self._cycle(node, [1], batch)
        assert node.cache.index.location_of(1) == Location.DRAM

    def test_bypassed_updates_still_apply(self):
        """Updates to unpromoted entries RMW through the store."""
        node = self._node(threshold=5)
        self._cycle(node, [1], 0)
        before = node.read_weights(1).copy()
        node.cache.drop_cache()
        self._cycle(node, [1], 1)  # bypassed but updated
        after = node.read_weights(1)
        assert not np.array_equal(before, after)

    def test_admission_is_semantics_free(self):
        """Filtered and unfiltered nodes train identical weights."""
        plain = self._node(threshold=0)
        filtered = self._node(threshold=2)
        rng = np.random.default_rng(3)
        for batch in range(10):
            keys = sorted(rng.choice(20, size=4, replace=False).tolist())
            grads = rng.normal(0, 0.1, (4, DIM)).astype(np.float32)
            for node in (plain, filtered):
                node.pull(keys, batch)
                node.maintain(batch)
                node.push(keys, grads, batch)
        a, b = plain.state_snapshot(), filtered.state_snapshot()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_checkpoint_recovery_with_admission(self):
        node = self._node(threshold=2)
        keys = list(range(8))
        self._cycle(node, keys, 0)
        node.barrier_checkpoint()
        expected = node.state_snapshot()
        self._cycle(node, keys, 1)
        pool = node.crash()
        from repro.core.recovery import recover_node

        recovered, report = recover_node(
            pool, node.server_config, node.cache_config
        )
        assert report.checkpoint_batch_id == 0
        got = recovered.state_snapshot()
        for key in expected:
            assert np.array_equal(got[key], expected[key])

    def test_filter_reduces_cache_churn(self):
        """Under a scan-heavy stream the filter cuts loads/evictions.

        Scan keys must already live in PMem (creations go to DRAM per
        Algorithm 1 regardless of the filter), so the key space is
        materialised and demoted first.
        """
        plain = self._node(threshold=0)
        filtered = self._node(threshold=1)
        hot = [1, 2]
        scan_keys = list(range(100, 140))
        for node in (plain, filtered):
            self._cycle(node, hot + scan_keys, 0)
            node.cache.drop_cache()
        for step, scan_key in enumerate(scan_keys):
            keys = hot + [scan_key]  # one-hit wonder per batch
            for node in (plain, filtered):
                self._cycle(node, keys, step + 1)
        assert filtered.metrics.cache.loads < plain.metrics.cache.loads
        assert filtered.metrics.cache.evictions < plain.metrics.cache.evictions
        # The filter's bookkeeping says it actually bypassed the scans.
        assert filtered.cache.admission.bypassed >= len(scan_keys)
