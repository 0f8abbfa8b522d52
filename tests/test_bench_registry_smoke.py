"""Every registered benchmark runs at smoke scale through the registry.

This is the contract the sweep harness depends on: ``discover()`` finds
every ``benchmarks/bench_*.py``, each registers exactly one callable
entry — the experiment's only body — whose smoke-scale resolution runs
to completion, returns finite numeric metrics including every declared
headline and trend metric, and passes its own acceptance check. A
benchmark that breaks any of these would silently drop out of the CI
perf gate — this test makes that loud instead.
"""

import math
import pathlib
import re

import pytest

from repro.bench import REGISTRY, Trajectory, discover

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))

MODULES_IMPORTED = discover()

WALL_CLOCK_ACCEPTANCE = {"obs_overhead"}
"""Benches whose acceptance check is a wall-clock ceiling. Tier-1 does
not gate wall-clock (a loaded runner flakes it): for these the test
holds the deterministic half of the contract here — the metrics exist,
``identical`` is true — and the ceiling stays with the CI step that runs
``repro bench run <name> --smoke`` on its own."""


def test_discovery_finds_all_bench_modules():
    assert MODULES_IMPORTED == len(BENCH_FILES) == len(REGISTRY)
    for path in BENCH_FILES:
        assert len(re.findall(r"^@register\(", path.read_text(), re.M)) == 1, path
        assert path.stem.removeprefix("bench_") in REGISTRY, path


def test_an_experiment_is_stated_once():
    """No pytest twin, script shim or path hack beside the entry."""
    for path in BENCH_FILES:
        source = path.read_text()
        assert not re.search(r"^def test_", source, re.M), path
        assert "sys.path" not in source and "__main__" not in source, path
    for path in BENCH_DIR.rglob("*.py"):
        if "e2e" not in path.parts:
            assert not re.search(r"^\s*(import|from) pytest", path.read_text(), re.M), path
    assert not list((BENCH_DIR / "results").glob("*.txt"))


def test_every_bench_declares_a_headline():
    missing = [
        name for name in REGISTRY.names() if not REGISTRY.get(name).headline
    ]
    assert missing == [], f"benches without gate coverage: {missing}"


@pytest.mark.parametrize("name", sorted(REGISTRY.names()))
def test_committed_rows_cover_both_scales(name):
    """Every bench has a committed trajectory recorded by the runner:
    smoke and full ok rows over exactly the declared param space."""
    spec = REGISTRY.get(name)
    trajectory = Trajectory.load(Trajectory.path_for(BENCH_DIR / "results", name))
    for scale in ("smoke", "full"):
        assert trajectory.ok_runs(scale=scale), f"{name}: no ok {scale} row"
    for run in trajectory.runs:
        assert run.status == "ok", f"{name}: error row {run.fingerprint}"
        assert set(run.params) == set(spec.params), (name, run.fingerprint)
        assert run.duration_s > 0 and run.env.get("git"), (name, run.fingerprint)
        assert set(spec.headline) <= set(run.metrics), (name, run.fingerprint)
    # no dead line in the paper-vs-measured table: some recorded row
    # carries each referenced metric
    recorded = set().union(*(run.metrics for run in trajectory.runs))
    assert {ref.metric for ref in spec.refs} <= recorded, name


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
    declared = set(spec.headline) | {trend.metric for trend in spec.trends}
    missing = sorted(declared - set(metrics))
    assert missing == [], f"{name}: headline / trend metrics absent: {missing}"
    assert spec.table([(params, metrics)]), f"{name}: no paper-vs-measured line"

    if name in WALL_CLOCK_ACCEPTANCE:
        assert metrics["identical"] is True
        return
    failures = spec.failures(metrics, params)
    assert failures == [], f"{name}: acceptance check failed: {failures}"
