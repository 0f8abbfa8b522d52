"""The parallel sweep runner: expansion, isolation, resume, parity.

The toy benchmarks live at module level so the fork pool can pickle
the registry (functions pickle by reference to their module).
"""

import pytest

from repro.bench import (
    BenchRegistry,
    Headline,
    Param,
    SweepRunner,
    Trajectory,
    cell_fingerprint,
    derive_seed,
    parse_grid,
)
from repro.errors import ConfigError


def toy_linear(*, x, factor):
    return {"value": float(x) * factor, "even": x % 2 == 0}


def toy_crashy(*, x):
    if x == 3:
        raise RuntimeError("injected worker crash")
    return {"value": float(x)}


def toy_seeded(*, n, seed):
    # metrics depend on the injected seed, so seed-derivation bugs show
    # up as metric drift, not just as a changed record field
    return {"value": float((seed * 31 + n) % 1000)}


def toy_bad_metrics(*, x):
    return {"value": "not a number"}


def toy_with_artifact(*, x):
    return {"value": float(x), "artifacts": {"toy_verdict.json": {"x": x}}}


def make_registry() -> BenchRegistry:
    registry = BenchRegistry()
    registry.register(
        "linear",
        params=[Param("x", "int", 1), Param("factor", "float", 2.0)],
        smoke={"factor": 1.0},
        headline={"value": Headline(direction="higher")},
    )(toy_linear)
    registry.register(
        "crashy", params=[Param("x", "int", 0)],
    )(toy_crashy)
    registry.register(
        "seeded", params=[Param("n", "int", 1), Param("seed", "int", 0)],
    )(toy_seeded)
    registry.register(
        "bad_metrics", params=[Param("x", "int", 0)],
    )(toy_bad_metrics)
    registry.register(
        "artifact", params=[Param("x", "int", 0)],
    )(toy_with_artifact)
    return registry


@pytest.fixture
def registry():
    return make_registry()


class TestExpand:
    def test_grid_to_cells_with_conditional_axis(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        grid = parse_grid("bench=linear,crashy; factor[bench=linear]=1.5,3.0")
        cells = runner.expand(grid)
        assert len(cells) == 3
        linear = [c for c in cells if c.bench == "linear"]
        assert sorted(c.params["factor"] for c in linear) == [1.5, 3.0]
        crashy = [c for c in cells if c.bench == "crashy"][0]
        assert crashy.params == {"x": 0}

    def test_smoke_overlay_applies_unless_pinned(self, registry, tmp_path):
        smoke = SweepRunner(registry, results_dir=tmp_path, scale="smoke")
        full = SweepRunner(registry, results_dir=tmp_path, scale="full")
        [cell] = smoke.expand(parse_grid("bench=linear"))
        assert cell.params["factor"] == 1.0  # smoke override
        [cell] = full.expand(parse_grid("bench=linear"))
        assert cell.params["factor"] == 2.0  # declared default
        [cell] = smoke.expand(parse_grid("bench=linear; factor=5.0"))
        assert cell.params["factor"] == 5.0  # grid pin wins

    def test_rejects_cell_without_bench(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        with pytest.raises(ConfigError):
            runner.expand(parse_grid("x=1,2"))

    def test_rejects_unknown_bench_and_param(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        with pytest.raises(ConfigError):
            runner.expand(parse_grid("bench=nope"))
        with pytest.raises(ConfigError):
            runner.expand(parse_grid("bench=linear; bogus=1"))

    def test_deterministic_seeds_and_fingerprints(self, registry, tmp_path):
        grid = parse_grid("bench=linear; x=1,2")
        first = SweepRunner(registry, results_dir=tmp_path, repeats=2).expand(grid)
        second = SweepRunner(registry, results_dir=tmp_path, repeats=2).expand(grid)
        assert first == second
        for cell in first:
            # "linear" declares no seed param, so cell.params is exactly
            # what the seed was derived from
            assert cell.seed == derive_seed(0, cell.bench, cell.params, cell.repeat)
            assert cell.fingerprint == cell_fingerprint(cell.bench, cell.params)
        # repeats get distinct seeds; distinct cells get distinct seeds
        seeds = [cell.seed for cell in first]
        assert len(set(seeds)) == len(seeds)

    def test_seed_param_injected_from_derived_seed(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        [cell] = runner.expand(parse_grid("bench=seeded"))
        assert cell.params["seed"] == cell.seed % (2**31 - 1)
        [pinned] = runner.expand(parse_grid("bench=seeded; seed=42"))
        assert pinned.params["seed"] == 42


class TestRun:
    def test_worker_crash_isolated_to_error_record(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        cells = runner.expand(parse_grid("bench=crashy; x=1,3,5"))
        result = runner.run(cells)
        assert result.ok == 2 and result.errors == 1
        [error] = [r for r in result.records if r.status == "error"]
        assert error.params == {"x": 3}
        assert "injected worker crash" in error.error
        assert "RuntimeError" in error.error
        # the trajectory holds all three records and still validates
        trajectory = Trajectory.load_or_create(tmp_path, "crashy")
        assert len(trajectory.runs) == 3

    def test_crash_isolated_in_parallel_pool(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path, jobs=2)
        cells = runner.expand(parse_grid("bench=crashy; x=1,3,5,7"))
        result = runner.run(cells)
        assert result.ok == 3 and result.errors == 1

    def test_invalid_metrics_become_error_record(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        result = runner.run(runner.expand(parse_grid("bench=bad_metrics")))
        assert result.errors == 1
        assert "non-numeric" in result.records[0].error

    def test_parallel_and_serial_sweeps_identical(self, registry, tmp_path):
        grid = parse_grid("bench=linear,seeded; x[bench=linear]=1,2,3")
        serial = SweepRunner(
            registry, results_dir=tmp_path / "serial", repeats=2
        )
        parallel = SweepRunner(
            registry, results_dir=tmp_path / "parallel", jobs=4, repeats=2
        )
        first = serial.run(serial.expand(grid))
        second = parallel.run(parallel.expand(grid))

        def essence(records):
            return [
                (r.bench, tuple(sorted(r.params.items())), r.seed, r.repeat,
                 r.scale, r.status, tuple(sorted(r.metrics.items())),
                 r.fingerprint)
                for r in records
            ]

        assert essence(first.records) == essence(second.records)
        assert first.ok == second.ok == 8

    def test_resume_skips_completed_cells(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        all_cells = runner.expand(parse_grid("bench=linear; x=1,2,3,4"))
        partial = runner.run(all_cells[:2])
        assert partial.ok == 2
        resumed = runner.run(all_cells, resume=True)
        assert resumed.skipped == 2
        assert resumed.ok == 2
        ran = {cell.params["x"] for cell in all_cells[2:]}
        assert {r.params["x"] for r in resumed.records} == ran
        trajectory = Trajectory.load_or_create(tmp_path, "linear")
        assert len(trajectory.runs) == 4

    def test_resume_retries_error_cells(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        cells = runner.expand(parse_grid("bench=crashy; x=1,3"))
        runner.run(cells)
        resumed = runner.run(cells, resume=True)
        # the ok cell is skipped; the error cell is retried (and fails again)
        assert resumed.skipped == 1
        assert resumed.errors == 1

    def test_rerun_replaces_not_duplicates(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        cells = runner.expand(parse_grid("bench=linear; x=1,2"))
        runner.run(cells)
        runner.run(cells)
        trajectory = Trajectory.load_or_create(tmp_path, "linear")
        assert len(trajectory.runs) == 2

    def test_keep_history_appends(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path, keep_history=True)
        cells = runner.expand(parse_grid("bench=linear"))
        runner.run(cells)
        runner.run(cells)
        trajectory = Trajectory.load_or_create(tmp_path, "linear")
        assert len(trajectory.runs) == 2

    def test_records_carry_env_and_schema_valid_metrics(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        result = runner.run(runner.expand(parse_grid("bench=linear; x=2")))
        [record] = result.records
        assert record.env.get("python")
        assert record.metrics == {"value": 2.0, "even": True}
        assert isinstance(record.metrics["even"], bool)
        assert record.duration_s >= 0

    def test_run_single(self, registry, tmp_path):
        runner = SweepRunner(registry, results_dir=tmp_path)
        record = runner.run_single("linear", {"x": 5})
        assert record.status == "ok"
        assert record.metrics["value"] == 5.0
        # run_single does not persist
        assert not Trajectory.path_for(tmp_path, "linear").is_file()

    def test_without_results_dir_nothing_is_written(
        self, registry, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        runner = SweepRunner(registry)
        result = runner.run(
            runner.expand(parse_grid("bench=linear,artifact")), resume=True
        )
        assert result.ok == 2 and result.paths == []
        assert list(tmp_path.iterdir()) == []

    def test_artifacts_land_beside_the_trajectory(self, registry, tmp_path):
        import json

        runner = SweepRunner(registry, results_dir=tmp_path, jobs=2)
        result = runner.run(runner.expand(parse_grid("bench=artifact,linear; x=7")))
        [record] = [r for r in result.records if r.bench == "artifact"]
        assert record.metrics == {"value": 7.0}  # the document is not a metric
        assert json.loads((tmp_path / "toy_verdict.json").read_text()) == {"x": 7}
        assert tmp_path / "toy_verdict.json" in result.paths

    def test_constructor_validation(self, registry):
        with pytest.raises(ConfigError):
            SweepRunner(registry, scale="warp")
        with pytest.raises(ConfigError):
            SweepRunner(registry, jobs=0)
        with pytest.raises(ConfigError):
            SweepRunner(registry, repeats=0)
