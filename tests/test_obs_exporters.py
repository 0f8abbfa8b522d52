"""Exporters: Prometheus text, JSON snapshot, Chrome trace, rendering."""

import json

import pytest

from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.obs import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    MetricsRegistry,
    Tracer,
    render_snapshot,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.exporters import to_chrome_trace, to_json_snapshot, to_prometheus
from repro.simulation.clock import SimClock
from repro.simulation.cluster import SystemKind
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_pulls_total", {"node": "0"}).add(12)
    registry.gauge("repro_cache_miss_rate", {"node": "0"}).set(0.25)
    hist = registry.histogram("repro_pull_latency_seconds")
    for v in (1e-5, 2e-5, 1e-4):
        hist.observe(v)
    return registry


class TestPrometheus:
    def test_type_lines_and_series(self):
        text = to_prometheus(_registry())
        assert "# TYPE repro_pulls_total counter" in text
        assert 'repro_pulls_total{node="0"} 12' in text
        assert "# TYPE repro_cache_miss_rate gauge" in text
        assert "# TYPE repro_pull_latency_seconds histogram" in text

    def test_histogram_bucket_sum_count_quantiles(self):
        text = to_prometheus(_registry())
        assert 'repro_pull_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_pull_latency_seconds_sum" in text
        assert "repro_pull_latency_seconds_count 3" in text
        assert 'repro_pull_latency_seconds_quantile{quantile="0.99"}' in text

    def test_buckets_cumulative_and_sorted(self):
        text = to_prometheus(_registry())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_pull_latency_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 3


class TestJsonSnapshot:
    def test_schema_and_roundtrip(self, tmp_path):
        registry = _registry()
        snapshot = to_json_snapshot(registry)
        assert snapshot["schema"] == METRICS_SCHEMA
        path = tmp_path / "m.json"
        assert write_metrics(registry, str(path)) == "json"
        assert json.loads(path.read_text()) == snapshot

    def test_extension_selects_format(self, tmp_path):
        registry = _registry()
        path = tmp_path / "m.prom"
        assert write_metrics(registry, str(path)) == "prometheus"
        assert path.read_text().startswith("# TYPE")

    def test_histogram_entry_has_quantiles(self):
        snapshot = to_json_snapshot(_registry())
        (hist,) = [m for m in snapshot["metrics"] if m["type"] == "histogram"]
        assert {"count", "p50", "p95", "p99", "max", "buckets"} <= hist.keys()


class TestChromeTrace:
    def test_spans_instants_and_thread_names(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work", keys=3):
            clock.advance(0.001)
        tracer.instant("mark", track="pmem")
        trace = to_chrome_trace(tracer)
        events = trace["traceEvents"]
        assert trace["otherData"]["schema"] == TRACE_SCHEMA
        x = [e for e in events if e["ph"] == "X"]
        i = [e for e in events if e["ph"] == "i"]
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(x) == 1 and x[0]["dur"] == pytest.approx(1000.0)
        assert len(i) == 1
        assert {m["args"]["name"] for m in names} == {"main", "pmem"}

    def test_write_returns_event_count(self, tmp_path):
        tracer = Tracer(clock=SimClock())
        tracer.add_span("a", start=0.0, duration=1.0)
        path = tmp_path / "t.json"
        count = write_chrome_trace(tracer, str(path))
        data = json.loads(path.read_text())
        assert count == len(data["traceEvents"])

    def test_simulated_run_shows_overlap(self):
        """Figure 7: prefetch + deferred maintenance under GPU compute."""
        tracer = Tracer()
        simulator = TrainingSimulator(
            SystemKind.PMEM_OE,
            server=ServerConfig(embedding_dim=8, pmem_capacity_bytes=1 << 24),
            cache=CacheConfig(capacity_bytes=1 << 16),
            workload=WorkloadGenerator(),
            prefetch=PrefetchConfig(lookahead=2),
            tracer=tracer,
        )
        simulator.run(8)
        trace = to_chrome_trace(tracer)
        events = trace["traceEvents"]

        def on(name):
            return [e for e in events if e.get("name") == name]

        gpu, maintain = on("gpu.compute"), on("maintain.deferred")
        assert gpu and maintain
        g, m = gpu[0], maintain[0]
        # Same wall interval, different tracks -> visibly overlapping.
        assert g["tid"] != m["tid"]
        assert g["ts"] <= m["ts"] < g["ts"] + g["dur"]
        assert on("prefetch.pull"), "lookahead pulls must appear in the trace"


class TestRenderSnapshot:
    def test_renders_tables_and_breakdown(self):
        registry = _registry()
        registry.counter("repro_phase_seconds_total", {"phase": "gpu"}).add(3.0)
        registry.counter("repro_phase_seconds_total", {"phase": "net_pull"}).add(1.0)
        out = render_snapshot(to_json_snapshot(registry))
        assert "histograms" in out
        assert "per-layer time breakdown" in out
        assert "gpu" in out and "75.0%" in out
        assert "repro_pulls_total{node=0}" in out

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            render_snapshot({"schema": "bogus", "metrics": []})
