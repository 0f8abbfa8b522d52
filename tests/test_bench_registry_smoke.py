"""Every registered benchmark runs at smoke scale through the registry.

This is the contract the sweep harness depends on: ``discover()`` finds
every ``benchmarks/bench_*.py``, each registers a callable entry whose
smoke-scale resolution runs to completion, returns finite numeric
metrics including every declared headline metric, and passes its own
acceptance check. A benchmark that breaks any of these would silently
drop out of the CI perf gate — this test makes that loud instead.
"""

import math

import pytest

from repro.bench import REGISTRY, discover

MODULES_IMPORTED = discover()

WALL_CLOCK_ACCEPTANCE = {"obs_overhead"}
"""Benches whose acceptance check is a wall-clock ceiling. Tier-1 does
not gate wall-clock (a loaded runner flakes it): for these the test
holds the deterministic half of the contract here — the metrics exist,
``identical`` is true — and the ceiling stays with the CI step that runs
``repro bench run <name> --smoke`` on its own."""


def test_discovery_finds_all_bench_modules():
    assert MODULES_IMPORTED >= 30
    assert len(REGISTRY) >= 30


def test_every_bench_declares_a_headline():
    missing = [
        name for name in REGISTRY.names() if not REGISTRY.get(name).headline
    ]
    assert missing == [], f"benches without gate coverage: {missing}"


@pytest.mark.parametrize("name", sorted(REGISTRY.names()))
def test_bench_smoke(name):
    spec = REGISTRY.get(name)
    params = spec.resolve(scale="smoke")

    # the declared space covers every entry kwarg (resolve() would have
    # raised otherwise), and headline metrics must exist in the output
    metrics = spec.run(params)

    assert metrics, f"{name}: empty metrics"
    for key, value in metrics.items():
        assert isinstance(value, (int, float, bool)), (
            f"{name}: metric {key!r} is {type(value).__name__}"
        )
        if not isinstance(value, bool):
            assert math.isfinite(value), f"{name}: metric {key!r} = {value!r}"
    missing = sorted(set(spec.headline) - set(metrics))
    assert missing == [], f"{name}: headline metrics absent: {missing}"

    if name in WALL_CLOCK_ACCEPTANCE:
        assert metrics["identical"] is True
        return
    failures = spec.failures(metrics, params)
    assert failures == [], f"{name}: acceptance check failed: {failures}"
