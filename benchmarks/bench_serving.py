"""Online inference tier: hierarchical read path QPS / tail latency.

The paper's deployments train *and serve* the same embedding tables
(Section II's online scenarios). This bench prices the serving
extension — :class:`repro.dlrm.hps.HierarchicalPS` in front of the
replicated RPC cluster — under the paper's own Table 2 access skew
(top 1% of keys -> 95.7% of accesses):

* **uncached vs cached**: the same closed-loop request stream against
  a tier with the hot-row cache disabled (every read pays wire + PMem)
  and enabled (hot rows answer from a client-local DRAM probe). The
  acceptance bar: the cached hit path's p99 must be at least 5x lower
  than the uncached p99.
* **flash crowd**: mid-run the hot set jumps to a disjoint key range;
  the p99 spike and recovery are reported.
* **train-while-serve chaos**: training pushes + checkpoint barriers
  land on the same cluster while reads flow, then one serving
  replica's primary is killed. Verdict: zero torn rows, zero rows
  staler than the k-checkpoint bound, and reads keep being served
  through the failover.

The chaos soak's ``repro-slo-v1`` verdict rides along as the
``slo_serving.json`` artifact: recorded beside the trajectory under
``--record DIR`` / ``sweep --out DIR``, rendered by ``repro slo``.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.dlrm.hps import HierarchicalPS
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOTracker
from repro.simulation.clock import SimClock
from repro.simulation.serving_sim import (
    ServingCostModel,
    ServingLoadDriver,
    TrainServeSoak,
)
from repro.workload.distributions import TABLE2_BANDS, BandedSkewDistribution
from tests.harness.scenario import build_backend, server_config

NUM_KEYS = 20_000
BATCH_KEYS = 64
CACHE_ROWS = 512
STALENESS_K = 1
#: Chaos-soak SLO targets: the failover window (one lease, 0.5 s) may
#: push a couple of requests past the latency threshold, so the budget
#: leaves room for the kill without masking a systemic regression.
SLO_P99_THRESHOLD_S = 0.05
SLO_P99_BUDGET = 0.02
SLO_AVAILABILITY_BUDGET = 0.001
#: Table 2: access mass on the top 1% of keys (bands 1+2+3).
TOP1PCT_SKEW = sum(mass for frac, mass in TABLE2_BANDS[:3])


def build_tier(seed: int, capacity_rows: int, slo=None):
    """Replicated 3-shard RPC cluster + serving tier + closed-loop driver."""
    config = server_config(3, seed, replicas=2, lease_s=0.5)
    clock = SimClock()
    registry = MetricsRegistry()
    # The default retry policy: the committed serving cells priced the
    # failover window with it.
    client = build_backend("rpc", config, clock=clock, registry=registry, retry=None)
    client.enable_failover(registry)
    tier = HierarchicalPS(
        client,
        capacity_rows=capacity_rows,
        staleness_bound_k=STALENESS_K,
        registry=registry,
        slo=slo,
    )
    distribution = BandedSkewDistribution(NUM_KEYS, seed=seed)
    # The RPC channels charge the wire on the shared clock; the cost
    # model adds only the device side (DRAM probe / PMem burst read).
    driver = ServingLoadDriver(
        tier,
        distribution,
        ServingCostModel(network=None),
        clock,
        batch_keys=BATCH_KEYS,
        num_keys=NUM_KEYS,
        slo=slo,
    )
    return client, tier, driver


def build_slo_tracker() -> SLOTracker:
    """The serving objectives the chaos soak is gated on."""
    tracker = SLOTracker()
    tracker.latency("serving_p99", SLO_P99_THRESHOLD_S, budget=SLO_P99_BUDGET)
    tracker.availability("serving_availability", budget=SLO_AVAILABILITY_BUDGET)
    tracker.staleness("serving_staleness", STALENESS_K, budget=0.0)
    return tracker


def pretrain(client, batches: int, seed: int) -> None:
    """Train the hot keys and complete one checkpoint (the serving pin)."""
    rng = np.random.default_rng(seed)
    dim = client.server_config.embedding_dim
    distribution = BandedSkewDistribution(NUM_KEYS, seed=seed)
    for batch in range(batches):
        keys = distribution.sample_keys(256)
        grads = rng.normal(0, 0.01, size=(len(keys), dim)).astype(np.float32)
        client.pull(keys, batch)
        client.maintain(batch)
        client.push(keys, grads, batch)
    client.barrier_checkpoint()


def run_cached_vs_uncached(warm: int, measure: int) -> dict:
    """The headline comparison; returns the result dict."""
    # Uncached: every row of every request pays wire + shard device.
    client_u, __, driver_u = build_tier(seed=11, capacity_rows=0)
    pretrain(client_u, batches=6, seed=11)
    uncached = driver_u.run(measure)

    # Cached: identical stream; warm first, then measure steady state.
    client_c, tier_c, driver_c = build_tier(seed=11, capacity_rows=CACHE_ROWS)
    pretrain(client_c, batches=6, seed=11)
    driver_c.run(warm)
    cached = driver_c.run(measure)

    speedup = (
        uncached.latency.p99 / cached.hit_latency.p99
        if cached.hit_latency.p99
        else float("inf")
    )
    return {
        "skew_top1pct": TOP1PCT_SKEW,
        "uncached": uncached.summary(),
        "cached": cached.summary(),
        "hit_path_p99_speedup": speedup,
    }


def run_flash_crowd(warm: int, measure: int) -> dict:
    """Mid-run hot-set jump: p99 while the cache re-warms."""
    client, tier, driver = build_tier(seed=23, capacity_rows=CACHE_ROWS)
    pretrain(client, batches=6, seed=23)
    driver.run(warm)
    stationary = driver.run(measure)
    driver.key_offset = NUM_KEYS // 2  # disjoint hot set: the crowd moves
    crowd = driver.run(measure)
    recovered = driver.run(measure)
    return {
        "stationary_p99_us": stationary.latency.p99 * 1e6,
        "crowd_p99_us": crowd.latency.p99 * 1e6,
        "recovered_p99_us": recovered.latency.p99 * 1e6,
        "stationary_hit_rate": stationary.hit_rate,
    }


def run_chaos(requests: int) -> dict:
    """Train-while-serve soak with a mid-run primary kill, SLO-gated."""
    slo = build_slo_tracker()
    client, tier, driver = build_tier(seed=37, capacity_rows=CACHE_ROWS, slo=slo)
    soak = TrainServeSoak(
        tier, client, driver, rng_seed=37, kill_primary_at=requests // 2, slo=slo
    )
    verdict = soak.run(requests)
    return {
        "requests": verdict.requests,
        "rows_audited": verdict.rows_audited,
        "torn_rows": verdict.torn_rows,
        "stale_rows": verdict.stale_rows,
        "max_staleness": verdict.max_staleness,
        "staleness_bound_k": STALENESS_K,
        "kills": verdict.kills,
        "served_through_kill": verdict.served_through_kill,
        "p99_us": verdict.report.latency.p99 * 1e6,
        "slo": slo.verdict(),
    }


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["hit_path_p99_speedup"] >= 5.0,
         f"hit-path p99 speedup {metrics['hit_path_p99_speedup']:.1f}x < 5x"),
        (not metrics["torn_rows"], f"{metrics['torn_rows']:.0f} torn rows served"),
        (not metrics["stale_rows"],
         f"{metrics['stale_rows']:.0f} rows beyond the staleness bound"),
        (not metrics["kills"] or metrics["served_through_kill"],
         "no reads served after the primary kill"),
        (metrics["slo_ok"], "an SLO error budget was exhausted"),
    )


@register(
    "serving",
    params=[
        Param("warm", "int", 100, help="cache warm-up requests"),
        Param("measure", "int", 300, help="measured requests per phase"),
        Param("chaos_requests", "int", 150),
    ],
    smoke={"warm": 40, "measure": 100, "chaos_requests": 100},
    headline={
        # All SimClock-driven latencies: deterministic, gate tightly.
        "hit_path_p99_speedup": Headline(direction="higher", max_regression=0.10),
        "hit_rate": Headline(direction="higher", max_regression=0.05),
        "slo_ok": Headline(),
    },
    check=_check,
    refs=[
        Ref("skew_top1pct", "access skew (top 1%)", "{:.1%}", paper="95.7% (Table 2)"),
        Ref("uncached_p99_us", "uncached p99", "{:.1f} us"),
        Ref("cached_p99_us", "cached p99", "{:.1f} us"),
        Ref("hit_rate", "  hit rate", "{:.1%}"),
        Ref("hit_p99_us", "hit-path p99", "{:.2f} us", paper=">= 5x lower"),
        Ref("hit_path_p99_speedup", "  vs uncached p99", "{:.0f}x", paper=">= 5x"),
        Ref("qps_cached", "QPS cached", "{:.0f}"),
        Ref("qps_uncached", "QPS uncached", "{:.0f}"),
        Ref("crowd_stationary_p99_us", "flash crowd p99: before", "{:.0f} us"),
        Ref("crowd_p99_us", "flash crowd p99: hot set jumps", "{:.0f} us"),
        Ref("crowd_recovered_p99_us", "flash crowd p99: re-warmed", "{:.0f} us"),
        Ref("torn_rows", "chaos torn rows", "{}", paper="0"),
        Ref("stale_rows", "chaos rows beyond k=1", "{}", paper="0"),
        Ref("rows_audited", "  rows audited", "{}"),
        Ref("served_through_kill", "served through kill", "{}", paper="True"),
        Ref("slo_ok", "SLO error budgets within budget", "{}", paper="True"),
    ],
)
def entry(*, warm, measure, chaos_requests):
    """Extension: hierarchical online serving tier (HPS-style) — cached
    vs uncached p99, flash-crowd p99, and the chaos soak's verdict."""
    headline = run_cached_vs_uncached(warm, measure)
    crowd = run_flash_crowd(warm, measure)
    chaos = run_chaos(chaos_requests)
    return {
        "skew_top1pct": headline["skew_top1pct"],
        "hit_path_p99_speedup": headline["hit_path_p99_speedup"],
        "hit_rate": headline["cached"]["hit_rate"],
        "qps_cached": headline["cached"]["qps"],
        "qps_uncached": headline["uncached"]["qps"],
        "hit_p99_us": headline["cached"]["hit_p99_us"],
        "cached_p99_us": headline["cached"]["p99_us"],
        "uncached_p99_us": headline["uncached"]["p99_us"],
        "crowd_stationary_p99_us": crowd["stationary_p99_us"],
        "crowd_p99_us": crowd["crowd_p99_us"],
        "crowd_recovered_p99_us": crowd["recovered_p99_us"],
        "rows_audited": chaos["rows_audited"],
        "torn_rows": chaos["torn_rows"],
        "stale_rows": chaos["stale_rows"],
        "kills": chaos["kills"],
        "served_through_kill": bool(chaos["served_through_kill"]),
        "slo_ok": bool(chaos["slo"]["ok"]),
        "artifacts": {"slo_serving.json": chaos["slo"]},
    }
