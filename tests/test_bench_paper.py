"""The paper-fidelity axis: checks, paper tolerances, trends, the lint.

The assertions the deleted ``test_*`` twins held now live on each
registration (``check`` lines, toleranced :class:`Ref` values,
cross-point :class:`Trend` relations). These tests show they bite —
perturb a metric past an assertion and read the failure text — and hold
the committed ``BENCH_*.json`` rows to all of them, JSON only.
"""

import dataclasses
import pathlib

import pytest

from repro.bench import (
    REGISTRY,
    Ref,
    SweepRunner,
    Trajectory,
    Trend,
    discover,
    load_grid,
    stuck_params,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

discover()


def committed(name: str, scale: str | None = None) -> list:
    runs = Trajectory.load(Trajectory.path_for(RESULTS, name)).ok_runs(scale=scale)
    return [(run.params, run.metrics) for run in runs]


def default_row(name: str):
    """The committed full row at the bench's default params."""
    spec = REGISTRY.get(name)
    defaults = spec.resolve(scale="full")
    return next(
        (params, dict(metrics))
        for params, metrics in committed(name, "full")
        if all(params[key] == defaults[key] for key in spec.along)
    )


class TestRefAndTrend:
    def test_tolerance_is_absolute_or_relative_to_the_paper(self):
        assert Ref("m", "m", paper=2.0, abs=0.1).miss(2.05, ()) is None
        assert "tolerance 0.1" in Ref("m", "m", paper=2.0, abs=0.1).miss(2.2, ())
        assert Ref("m", "m", paper={4: 2.0}, rel=0.25).miss(2.5, 4) is None
        assert Ref("m", "m", paper={4: 2.0}, rel=0.25).miss(2.6, 4)
        # a point the paper does not quote, text, or no tolerance: no claim
        assert Ref("m", "m", paper={4: 2.0}, rel=0.25).miss(9.0, 8) is None
        assert Ref("m", "m", paper="~2").miss(9.0, ()) is None
        assert Ref("m", "m", paper=2.0).miss(9.0, ()) is None

    def test_trend_shapes(self):
        rising = Trend("m", along="x")
        assert rising.violations([(1, 1.0), (2, 1.0), (3, 2.0)]) == []
        assert rising.violations([(3, 1.0), (1, 2.0)])  # sorted by x first
        assert dataclasses.replace(rising, strict=True).violations(
            [(1, 1.0), (2, 1.0)]
        )
        assert "ends differ" in dataclasses.replace(rising, by=0.5).violations(
            [(1, 1.0), (2, 1.2)]
        )[0]
        falling = Trend("m", along="x", shape="falling")
        assert falling.violations([(1, 3.0), (2, 2.0)]) == []
        assert falling.violations([(1, 2.0), (2, 3.0)])
        flat = Trend("m", along="x", shape="flat", by=0.1)
        assert flat.violations([(1, 1.0), (2, 1.05)]) == []
        assert "spread" in flat.violations([(1, 1.0), (2, 1.2)])[0]
        assert rising.violations([(1, 9.0)]) == []  # one point: nothing to relate

    def test_a_series_holds_every_other_param_equal(self):
        rows = [
            ({"x": x, "seed": seed}, {"m": float(x)})
            for seed in (1, 2) for x in (1, 2, 3)
        ] + [({"x": 9, "seed": 3}, {"m": 0.0})]
        trend = Trend("m", along="x", points=(1, 3, 9))
        assert sorted(trend.series(rows)) == [
            [(1, 1.0), (3, 3.0)], [(1, 1.0), (3, 3.0)], [(9, 0.0)],
        ]


class TestChecksBite:
    """Each migrated assertion of three benches of different kinds."""

    def perturbed(self, name, **changes):
        params, metrics = default_row(name)
        assert REGISTRY.get(name).failures(metrics, params) == []
        metrics.update(changes)
        return "\n".join(REGISTRY.get(name).failures(metrics, params))

    def test_fig7_pipeline(self):
        # approx(PAPER_OE, abs=0.06), approx(PAPER_ORI, rel=0.25), oe < ori
        assert "PMem-OE   @ 16 GPUs: measured 1.160x vs paper 1.087x" in (
            self.perturbed("fig7_pipeline", oe_ratio=1.16)
        )
        assert "Ori-Cache @ 16 GPUs: measured 2.90x vs paper 2.27x" in (
            self.perturbed("fig7_pipeline", ori_ratio=2.9)
        )
        assert "should beat the inline Ori-Cache" in (
            self.perturbed("fig7_pipeline", oe_ratio=1.1, ori_ratio=1.09)
        )
        assert "DRAM-PS epoch 16/4 GPUs: measured 0.45x vs paper 0.35x" in (
            self.perturbed("fig7_pipeline", dram_vs_4gpu=0.45)
        )

    def test_fig12_ckpt_interval(self):
        # sparse == approx(0, abs=0.005); proposed < 0.05; incremental > 4x
        assert "sparse only @ 20 min: measured +0.60% vs paper +0.00%" in (
            self.perturbed("fig12_ckpt_interval", sparse_overhead=0.006)
        )
        assert "proposed checkpoint overhead +6.00% >= 5%" in (
            self.perturbed("fig12_ckpt_interval", proposed_overhead=0.06)
        )
        assert "incremental should cost 4x+ the proposed mode" in (
            self.perturbed("fig12_ckpt_interval", incremental_overhead=0.03)
        )

    def test_ablation_reliability(self):
        # recovery[OE] < recovery[DRAM]; advantage >= checkpoint-only
        assert "PMem-OE recovery no faster than DRAM-PS's" in (
            self.perturbed("ablation_reliability", oe_recovery_s=9.0)
        )
        assert "below the checkpoint-only" in (
            self.perturbed("ablation_reliability", advantage=0.01)
        )

    def test_cross_point_hook_on_non_monotone_fig8(self):
        spec = REGISTRY.get("fig8_cache_size")
        rows = committed("fig8_cache_size", "full")
        assert spec.verify(rows) == []
        bent = [
            (params, {**metrics, "ratio_vs_10mb": 0.9})
            if params["cache_mb"] == 400 else (params, metrics)
            for params, metrics in rows
        ]
        [failure] = spec.verify(bent)
        assert "ratio_vs_10mb along cache_mb" in failure and "not falling" in failure
        # "2 GB -> 20 GB nearly flat" reads only those two points
        steep = [
            (params, {**metrics, "ratio_vs_10mb": 0.40})
            if params["cache_mb"] == 20480 else (params, metrics)
            for params, metrics in rows
        ]
        assert any("spread" in failure for failure in spec.verify(steep))


@pytest.mark.parametrize("name", sorted(REGISTRY.names()))
class TestCommittedRows:
    def test_hold_every_check_tolerance_and_trend(self, name):
        spec = REGISTRY.get(name)
        for scale in ("smoke", "full"):
            assert spec.verify(committed(name, scale)) == []

    def test_every_trend_relates_at_least_two_full_rows(self, name):
        """A trend reads rows that differ ONLY along its param, so a
        stray per-cell difference (an unpinned seed) would silence it."""
        rows = committed(name, "full")
        for trend in REGISTRY.get(name).trends:
            longest = max(map(len, trend.series(rows)), default=0)
            assert longest >= 2, f"{name}: {trend} is vacuous"

    def test_no_param_moves_nothing(self, name):
        trajectory = Trajectory.load(Trajectory.path_for(RESULTS, name))
        spec = REGISTRY.get(name)
        assert stuck_params(trajectory, spec.saturated) == []
        assert all(why for why in spec.saturated.values())


class TestTrajectoryLint:
    def test_flags_a_row_copied_under_other_params(self):
        """The parent's BENCH_serving.json: the full row was the smoke
        row's metrics under the full params."""
        trajectory = Trajectory.load(Trajectory.path_for(RESULTS, "serving"))
        smoke = trajectory.ok_runs(scale="smoke")[0]
        full = trajectory.ok_runs(scale="full")[0]
        copied = Trajectory("serving", [
            smoke, dataclasses.replace(full, metrics=dict(smoke.metrics)),
        ])
        [error] = stuck_params(copied)
        assert "chaos_requests" in error and "identical metrics" in error

    def test_saturated_params_are_exempt(self):
        trajectory = Trajectory.load(Trajectory.path_for(RESULTS, "table1_devices"))
        run = trajectory.ok_runs(scale="full")[0]
        pair = Trajectory("table1_devices", [
            dataclasses.replace(run, params={"knob": 1}, fingerprint="a" * 12),
            dataclasses.replace(run, params={"knob": 2}, fingerprint="b" * 12),
        ])
        assert stuck_params(pair)
        assert stuck_params(pair, saturated={"knob": "why"}) == []


def test_paper_grid_lists_every_point_the_paper_quotes():
    cells = SweepRunner(scale="full").expand(
        load_grid(ROOT / "benchmarks" / "grids" / "paper.json")
    )
    swept = {(cell.bench, REGISTRY.get(cell.bench).point(cell.params)) for cell in cells}
    assert {cell.bench for cell in cells} == set(REGISTRY.names())
    for name in REGISTRY.names():
        for ref in REGISTRY.get(name).refs:
            if isinstance(ref.paper, dict):
                assert {(name, point) for point in ref.paper} <= swept, (name, ref)


def test_ci_grid_covers_every_bench():
    cells = SweepRunner(scale="smoke").expand(
        load_grid(ROOT / "benchmarks" / "grids" / "ci.json")
    )
    assert {cell.bench for cell in cells} == set(REGISTRY.names())
