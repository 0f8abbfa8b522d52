"""MetricsRegistry: labels, kind safety, merging, bundle collection, and
the metric catalogue in docs/OBSERVABILITY.md."""

import dataclasses
import re
from pathlib import Path

import numpy as np
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


def brace_expand(token: str) -> list[str]:
    """``a_{b,c}_d`` -> ``[a_b_d, a_c_d]``, nested and repeated braces
    included."""
    match = re.search(r"\{([^{}]*)\}", token)
    if match is None:
        return [token]
    return [
        name
        for choice in match.group(1).split(",")
        for name in brace_expand(token[: match.start()] + choice + token[match.end() :])
    ]


class TestMetricCatalogue:
    """``docs/OBSERVABILITY.md`` names every ``repro_*`` series the code
    emits: what a live registry holds after a local and an RPC run, and
    every name a module spells out."""

    ROOT = Path(__file__).resolve().parents[1]

    @classmethod
    def documented(cls) -> set[str]:
        text = (cls.ROOT / "docs" / "OBSERVABILITY.md").read_text()
        text = re.sub(r"\{[^{}]*=[^{}]*\}", "", text)  # label sets: {phase=...}
        return {
            name
            for token in re.findall(r"repro_[a-z_{},]*[a-z_}]", text)
            for name in brace_expand(token)
        }

    def test_brace_expansion(self):
        assert brace_expand("repro_{a,b}_x_{c,d}") == [
            "repro_a_x_c", "repro_a_x_d", "repro_b_x_c", "repro_b_x_d",
        ]

    def test_every_series_of_a_sync_run_is_documented(self):
        from repro.config import CacheConfig, ServerConfig
        from repro.core.server import OpenEmbeddingServer
        from repro.dlrm.hps import ServingStats
        from repro.network.frontend import RemotePSClient

        registry = MetricsRegistry()
        for build in (OpenEmbeddingServer, RemotePSClient):
            backend = build(
                ServerConfig(num_nodes=2, embedding_dim=4, pmem_capacity_bytes=1 << 22),
                CacheConfig(capacity_bytes=8 * 4 * 4),  # 8 rows a shard: rounds evict
            )
            rng = np.random.default_rng(5)
            for batch_id in range(6):
                keys = rng.integers(0, 40, 24).astype(np.uint64)
                backend.pull(keys, batch_id)
                backend.maintain(batch_id)
                backend.push(keys, np.ones((len(keys), 4), np.float32), batch_id)
                if batch_id % 2:
                    backend.barrier_checkpoint(batch_id)
            backend.lookup(keys)
            backend.collect_metrics(registry)
        emitted = {name for name, __, __ in registry.items()}
        emitted |= {f"repro_serving_{field.name}_total" for field in dataclasses.fields(ServingStats)}
        assert {"repro_cache_evictions_total", "repro_serving_lookups_total"} <= emitted
        assert sorted(emitted - self.documented()) == []

    def test_every_name_a_module_spells_is_documented(self):
        spelled = {
            name
            for path in (self.ROOT / "src").rglob("*.py")
            for name in re.findall(r"[\"'](repro_[a-z_]+)[\"']", path.read_text())
        }
        assert len(spelled) > 60
        assert sorted(spelled - self.documented()) == []
