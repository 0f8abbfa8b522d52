"""Metrics, cache stats and the Figure 2 request trace."""

import pytest

from repro.simulation.metrics import CacheStats, Metrics, RequestTrace


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


class TestRequestTrace:
    def test_default_is_disabled(self):
        """The constructor default matches the docstring: off by default."""
        trace = RequestTrace()
        assert not trace.enabled
        trace.record(0.001, RequestTrace.PULL, 10)
        assert trace.events == []

    def test_disabled_trace_records_nothing(self):
        trace = RequestTrace(enabled=False)
        trace.record(0.001, RequestTrace.PULL, 10)
        assert trace.events == []

    def test_per_millisecond_bucketing(self):
        trace = RequestTrace(enabled=True)
        trace.record(0.0001, RequestTrace.PULL, 5)
        trace.record(0.0009, RequestTrace.PULL, 3)
        trace.record(0.0021, RequestTrace.UPDATE, 7)
        buckets = trace.per_millisecond()
        assert buckets[0] == 8
        assert buckets[2] == 7

    def test_per_millisecond_filter_by_op(self):
        trace = RequestTrace(enabled=True)
        trace.record(0.0, RequestTrace.PULL, 5)
        trace.record(0.0, RequestTrace.UPDATE, 3)
        assert trace.per_millisecond(RequestTrace.PULL) == {0: 5}

    def test_pairs_property(self):
        """Pull and update totals must match — the 'in pairs' pattern."""
        trace = RequestTrace(enabled=True)
        for batch in range(4):
            trace.record(batch * 0.01, RequestTrace.PULL, 100)
            trace.record(batch * 0.01 + 0.005, RequestTrace.UPDATE, 100)
        totals = trace.totals()
        assert totals[RequestTrace.PULL] == totals[RequestTrace.UPDATE] == 400

    def test_clear(self):
        trace = RequestTrace(enabled=True)
        trace.record(0.0, RequestTrace.PULL)
        trace.clear()
        assert trace.events == []


class TestMetrics:
    def test_reset_cascades(self):
        metrics = Metrics()
        metrics.pulls = 10
        metrics.cache.hits = 5
        metrics.reset()
        assert metrics.pulls == 0
        assert metrics.cache.hits == 0
