"""Stat-bundle algebra: merge accumulation and reset round-trips.

Multi-node aggregation relies on ``merge`` being exact addition and on
``reset`` returning a bundle to its zero element — these tests pin the
algebra for every stat bundle.
"""

import dataclasses

import pytest

from repro.obs.registry import MetricsRegistry, collect_bundle
from repro.simulation.metrics import (
    CacheStats,
    Metrics,
    PrefetchStats,
    RpcReliabilityStats,
)


def _fill(bundle, start: int) -> None:
    """Give every numeric field a distinct nonzero value."""
    for i, field in enumerate(dataclasses.fields(bundle)):
        current = getattr(bundle, field.name)
        if isinstance(current, float):
            setattr(bundle, field.name, float(start + i) / 2.0)
        elif isinstance(current, int):
            setattr(bundle, field.name, start + i)


@pytest.mark.parametrize(
    "bundle_cls", [CacheStats, RpcReliabilityStats, PrefetchStats]
)
class TestBundleAlgebra:
    def test_merge_is_fieldwise_sum(self, bundle_cls):
        a, b = bundle_cls(), bundle_cls()
        _fill(a, 1)
        _fill(b, 100)
        expected = {
            f.name: getattr(a, f.name) + getattr(b, f.name)
            for f in dataclasses.fields(a)
        }
        a.merge(b)
        for name, value in expected.items():
            assert getattr(a, name) == pytest.approx(value), name

    def test_merge_zero_is_identity(self, bundle_cls):
        a = bundle_cls()
        _fill(a, 5)
        before = dataclasses.asdict(a)
        a.merge(bundle_cls())
        assert dataclasses.asdict(a) == before

    def test_reset_roundtrip(self, bundle_cls):
        a = bundle_cls()
        _fill(a, 9)
        a.reset()
        assert dataclasses.asdict(a) == dataclasses.asdict(bundle_cls())

    def test_merge_then_reset_then_merge_again(self, bundle_cls):
        """reset() must not leave residue that later merges compound."""
        a, b = bundle_cls(), bundle_cls()
        _fill(b, 3)
        a.merge(b)
        a.reset()
        a.merge(b)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestMetricsBundle:
    def _metrics(self, seed: int) -> Metrics:
        m = Metrics()
        _fill(m.cache, seed)
        m.dup_suppressed = seed + 10
        m.pulls = seed
        m.updates = seed + 1
        m.entries_created = seed + 2
        m.checkpoints_completed = seed + 3
        m.pmem_flush_entries = seed + 4
        return m

    def test_merge_accumulates_every_sub_bundle(self):
        a, b = self._metrics(1), self._metrics(50)
        expected_pulls = a.pulls + b.pulls
        expected_hits = a.cache.hits + b.cache.hits
        expected_dups = a.dup_suppressed + b.dup_suppressed
        a.merge(b)
        assert a.pulls == expected_pulls
        assert a.cache.hits == expected_hits
        assert a.dup_suppressed == expected_dups

    def test_reset_clears_every_counter(self):
        m = self._metrics(4)
        m.reset()
        assert m == Metrics()

    def test_registry_roundtrip_matches_merged_bundle(self):
        """collect per-node then sum across labels == merge then collect."""
        nodes = [self._metrics(1), self._metrics(30)]
        per_node = MetricsRegistry()
        for i, bundle in enumerate(nodes):
            collect_bundle(per_node, bundle, {"node": str(i)})
        merged = Metrics()
        for bundle in nodes:
            merged.merge(bundle)
        rolled = MetricsRegistry()
        collect_bundle(rolled, merged, {"node": "all"})
        for name, __, metric in rolled.items():
            if name == "repro_cache_miss_rate":
                continue  # gauge: a ratio, not additive
            total = sum(
                m.value for n, __, m in per_node.items() if n == name
            )
            assert total == pytest.approx(metric.value), name
