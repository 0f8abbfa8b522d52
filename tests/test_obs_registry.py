"""MetricsRegistry: labels, kind safety, merging, bundle collection."""

import pytest

from repro.errors import ConfigError
from repro.obs.histogram import Histogram
from repro.obs.registry import Counter, Gauge, MetricsRegistry, collect_bundle
from repro.simulation.metrics import Metrics


class TestGetOrCreate:
    def test_same_name_labels_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_pulls_total", {"node": "0"})
        b = registry.counter("repro_pulls_total", {"node": "0"})
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", {"a": "1", "b": "2"})
        b = registry.counter("m", {"b": "2", "a": "1"})
        assert a is b

    def test_different_labels_different_series(self):
        registry = MetricsRegistry()
        a = registry.counter("m", {"node": "0"})
        b = registry.counter("m", {"node": "1"})
        assert a is not b
        assert len(registry) == 2

    def test_kind_mixing_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigError):
            registry.gauge("m")
        with pytest.raises(ConfigError):
            registry.histogram("m", {"other": "labels"})

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("")

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("m")
        with pytest.raises(ConfigError):
            counter.add(-1)

    def test_find_returns_none_for_missing(self):
        registry = MetricsRegistry()
        registry.counter("m", {"node": "0"})
        assert registry.find("m", {"node": "1"}) is None
        assert registry.find("m", {"node": "0"}) is not None


class TestMerge:
    def test_counters_sum_gauges_last_writer_histograms_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").add(2)
        b.counter("c").add(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h").observe(0.1)
        b.histogram("h").observe(0.2)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 9.0
        assert a.histogram("h").count == 2

    def test_merge_copies_foreign_label_sets(self):
        cluster, node = MetricsRegistry(), MetricsRegistry()
        node.counter("repro_pulls_total", {"node": "3"}).add(7)
        cluster.merge(node)
        assert cluster.counter("repro_pulls_total", {"node": "3"}).value == 7

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(4.0)
        b.gauge("g")  # created but never set
        a.merge(b)
        assert a.gauge("g").value == 4.0


class TestCollectBundle:
    def _bundle(self) -> Metrics:
        metrics = Metrics()
        metrics.pulls = 10
        metrics.cache.hits = 8
        metrics.cache.misses = 2
        metrics.dup_suppressed = 3
        return metrics

    def test_hoists_nonzero_counters_with_labels(self):
        registry = MetricsRegistry()
        collect_bundle(registry, self._bundle(), {"node": "0"})
        assert registry.counter("repro_pulls_total", {"node": "0"}).value == 10
        assert registry.counter("repro_cache_hits_total", {"node": "0"}).value == 8
        assert (
            registry.counter("repro_rpc_dup_suppressed_total", {"node": "0"}).value
            == 3
        )
        assert registry.gauge("repro_cache_miss_rate", {"node": "0"}).value == (
            pytest.approx(0.2)
        )

    def test_zero_counters_not_materialized(self):
        registry = MetricsRegistry()
        collect_bundle(registry, Metrics(), {"node": "0"})
        assert registry.find("repro_pulls_total", {"node": "0"}) is None

    def test_multi_node_rollup_keeps_per_node_series(self):
        """Per-node registries merge into a cluster view losslessly."""
        cluster = MetricsRegistry()
        for node_id in range(3):
            local = MetricsRegistry()
            collect_bundle(local, self._bundle(), {"node": str(node_id)})
            cluster.merge(local)
        total = sum(
            metric.value
            for name, __, metric in cluster.items()
            if name == "repro_pulls_total"
        )
        assert total == 30
        assert cluster.counter("repro_pulls_total", {"node": "2"}).value == 10
