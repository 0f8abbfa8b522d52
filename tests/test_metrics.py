"""Metrics and cache stats."""

import pytest

from repro.simulation.metrics import CacheStats, Metrics


class TestCacheStats:
    def test_miss_rate(self):
        stats = CacheStats(hits=75, misses=25)
        assert stats.miss_rate == pytest.approx(0.25)
        assert stats.accesses == 100

    def test_miss_rate_no_accesses(self):
        assert CacheStats().miss_rate == 0.0

    def test_reset(self):
        stats = CacheStats(hits=1, misses=2, evictions=3, flushes=4, loads=5)
        stats.reset()
        assert stats.accesses == 0
        assert stats.evictions == 0


class TestMetrics:
    def test_reset_cascades(self):
        metrics = Metrics()
        metrics.pulls = 10
        metrics.cache.hits = 5
        metrics.reset()
        assert metrics.pulls == 0
        assert metrics.cache.hits == 0
