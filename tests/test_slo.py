"""Serving SLO objectives: burn-rate math, verdicts, metric export.

Covers :mod:`repro.obs.slo` — the three objective kinds, error-budget
burn rates (including the zero-budget → infinite-burn edge),
schema-versioned verdicts and their renderer, the ``repro_slo_*``
metric series, and the :class:`~repro.dlrm.hps.HierarchicalPS`
integration (an availability event per unpinned lookup, bad on raise,
pinned reads bypass).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.hps import HierarchicalPS
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.obs.slo import SLO_SCHEMA, Objective, SLOTracker, render_verdict

DIM = 8


def make_tier(slo, **kwargs):
    server = OpenEmbeddingServer(
        ServerConfig(
            num_nodes=2,
            embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22,
            seed=3,
        ),
        CacheConfig(capacity_bytes=1 << 18),
    )
    keys = list(range(16))
    server.pull(keys, 0)
    server.maintain(0)
    server.push(keys, np.full((16, DIM), 0.01, dtype=np.float32), 0)
    server.barrier_checkpoint()
    return HierarchicalPS(server, capacity_rows=32, slo=slo, **kwargs)


# ----------------------------------------------------------------------
# objective math
# ----------------------------------------------------------------------


class TestObjective:
    def test_latency_violations_above_threshold(self):
        obj = Objective("p99", "latency", threshold=1e-3, budget=0.5)
        for __ in range(8):
            obj.observe(1e-5)  # well under a bucket below the threshold
        for __ in range(2):
            obj.observe(1e-1)  # well over
        assert obj.events == 10
        assert obj.violations == 2
        assert obj.violation_fraction == pytest.approx(0.2)
        assert obj.burn_rate == pytest.approx(0.4)
        assert obj.ok

    def test_latency_threshold_is_bucket_conservative(self):
        # An observation in the bucket straddling the threshold counts
        # as violating: violations may over-count, never under-count.
        obj = Objective("p99", "latency", threshold=1e-3, budget=0.5)
        obj.observe(0.99e-3)
        assert obj.violations in (0, 1)
        obj2 = Objective("p99", "latency", threshold=1e-3, budget=0.5)
        obj2.observe(1.01e-3)  # strictly above: always a violation
        assert obj2.violations == 1

    def test_availability_counts(self):
        obj = Objective("avail", "availability", threshold=0.0, budget=0.1)
        obj.record(good=18)
        obj.record(bad=2)
        assert obj.events == 20
        assert obj.violations == 2
        assert obj.burn_rate == pytest.approx(1.0)
        assert obj.ok  # burn == 1.0 is exactly at budget, still ok

    def test_no_events_no_burn(self):
        obj = Objective("idle", "staleness", threshold=1.0, budget=0.0)
        assert obj.events == 0
        assert obj.burn_rate == 0.0
        assert obj.ok

    def test_zero_budget_any_violation_is_infinite_burn(self):
        obj = Objective("stale", "staleness", threshold=1.0, budget=0.0)
        obj.record(good=999, bad=1)
        assert obj.burn_rate == math.inf
        assert not obj.ok

    def test_over_budget_fails(self):
        obj = Objective("avail", "availability", threshold=0.0, budget=0.01)
        obj.record(good=50, bad=50)
        assert obj.burn_rate == pytest.approx(50.0)
        assert not obj.ok

    def test_latency_objective_rejects_record_misuse(self):
        obj = Objective("avail", "availability", threshold=0.0, budget=0.1)
        with pytest.raises(ConfigError, match="latency observations"):
            obj.observe(0.01)

    def test_bad_kind_and_budget_rejected(self):
        with pytest.raises(ConfigError, match="unknown SLO kind"):
            Objective("x", "throughput", threshold=0.0, budget=0.1)
        with pytest.raises(ConfigError, match="budget"):
            Objective("x", "latency", threshold=1.0, budget=1.0)
        with pytest.raises(ConfigError, match="budget"):
            Objective("x", "latency", threshold=1.0, budget=-0.1)

    def test_report_includes_p99_for_latency(self):
        obj = Objective("p99", "latency", threshold=1e-3, budget=0.1)
        obj.observe(2e-3)
        row = obj.report()
        assert row["kind"] == "latency"
        assert row["p99_s"] >= 2e-3 * 0.8
        avail = Objective("a", "availability", threshold=0.0, budget=0.1)
        avail.record(good=1)
        assert "p99_s" not in avail.report()


# ----------------------------------------------------------------------
# tracker
# ----------------------------------------------------------------------


class TestSLOTracker:
    def test_get_or_create_returns_same_objective(self):
        tracker = SLOTracker()
        a = tracker.latency("p99", 1e-3, budget=0.05)
        b = tracker.latency("p99", 9e9, budget=0.9)  # params ignored
        assert a is b
        assert b.threshold == 1e-3 and b.budget == 0.05

    def test_kind_mismatch_rejected(self):
        tracker = SLOTracker()
        tracker.latency("p99", 1e-3)
        with pytest.raises(ConfigError, match="already registered"):
            tracker.availability("p99")

    def test_verdict_schema_and_aggregation(self):
        tracker = SLOTracker()
        tracker.availability("a", budget=0.1)
        tracker.staleness("s", bound_k=1, budget=0.0)
        tracker.record("a", good=9, bad=1)  # burn 1.0: ok
        tracker.record("s", good=10)
        verdict = tracker.verdict()
        assert verdict["schema"] == SLO_SCHEMA
        assert verdict["ok"]
        assert {row["name"] for row in verdict["objectives"]} == {"a", "s"}
        tracker.record("s", bad=1)  # zero budget: exhausted
        verdict = tracker.verdict()
        assert not verdict["ok"]
        assert tracker.exhausted() == ["s"]

    def test_render_verdict(self):
        tracker = SLOTracker()
        tracker.staleness("serving_staleness", bound_k=1, budget=0.0)
        tracker.record("serving_staleness", good=5, bad=1)
        text = render_verdict(tracker.verdict())
        assert "serving_staleness" in text
        assert "BUDGET EXHAUSTED" in text
        assert "overall: FAILED" in text
        assert "inf" in text

    def test_render_rejects_wrong_schema(self):
        with pytest.raises(ConfigError, match="repro-slo-v1"):
            render_verdict({"schema": "nope", "objectives": []})

    def test_emit_metrics(self):
        tracker = SLOTracker()
        tracker.availability("a", budget=0.1)
        tracker.record("a", good=8, bad=2)
        tracker.staleness("s", bound_k=1, budget=0.0)
        tracker.record("s", bad=1)
        registry = MetricsRegistry()
        tracker.emit_metrics(registry)
        labels = {"objective": "a", "kind": "availability"}
        assert registry.counter("repro_slo_events_total", labels).value == 10
        assert registry.counter("repro_slo_violations_total", labels).value == 2
        assert registry.gauge("repro_slo_burn_rate", labels).value == (
            pytest.approx(2.0)
        )
        # Infinite burn exports as the -1.0 sentinel, budget 0 remaining.
        stale = {"objective": "s", "kind": "staleness"}
        assert registry.gauge("repro_slo_burn_rate", stale).value == -1.0
        assert registry.gauge("repro_slo_budget_remaining", stale).value == 0.0


# ----------------------------------------------------------------------
# serving-tier integration
# ----------------------------------------------------------------------


class TestServingIntegration:
    def test_tier_registers_intrinsic_objectives(self):
        slo = SLOTracker()
        tier = make_tier(slo, staleness_bound_k=2)
        assert slo.objectives["serving_availability"].kind == "availability"
        stale = slo.objectives["serving_staleness"]
        assert stale.kind == "staleness"
        assert stale.threshold == 2.0
        assert tier.slo is slo

    def test_unpinned_lookup_records_good(self):
        slo = SLOTracker()
        tier = make_tier(slo)
        for __ in range(3):
            tier.lookup([1, 2, 3])
        avail = slo.objectives["serving_availability"]
        assert avail.good == 3 and avail.bad == 0

    def test_failed_lookup_records_bad_and_reraises(self):
        slo = SLOTracker()
        tier = make_tier(slo)
        tier.lookup([1])

        def boom(keys, snapshot_id=None, *, mixed=None):
            raise RuntimeError("shard unreachable")

        tier.backend.lookup = boom
        tier.invalidate()  # force the backend path
        with pytest.raises(RuntimeError, match="shard unreachable"):
            tier.lookup([1, 2])
        avail = slo.objectives["serving_availability"]
        assert avail.good == 1 and avail.bad == 1

    def test_pinned_lookup_bypasses_availability(self):
        slo = SLOTracker()
        tier = make_tier(slo)
        pin = tier.backend.latest_serving_snapshot
        tier.lookup([1, 2], snapshot_id=pin)
        avail = slo.objectives["serving_availability"]
        assert avail.events == 0
