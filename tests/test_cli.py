"""CLI subcommands (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.system == "pmem_oe"
        assert args.workers == 16

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--system", "bogus"])


    @pytest.mark.parametrize("argv", [
        ["simulate", "--mttf", "nan"],
        ["simulate", "--skew", "nan"],
        ["simulate", "--cache-mb", "nan"],
        ["simulate", "--interval-seconds", "inf"],
        ["simulate", "--lease-ms", "nan"],
        ["train", "--hostile", "nan"],
        ["train", "--byzantine-scale", "inf"],
        ["plan", "--model-gb", "nan"],
        ["plan", "--epoch-hours", "Infinity"],
        ["plan", "--mttf-hours", "nan"],
        ["plan", "--ckpt-cost-s", "nan"],
        ["workload", "--skew", "nan"],
    ])
    def test_non_finite_float_flag_exits_2(self, capsys, argv):
        """Every float flag refuses NaN and infinities before a command
        runs (``--mttf nan`` once sampled a kill schedule forever)."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and argv[1] in errors[0] and "finite" in errors[0]

    def test_every_float_flag_is_checked(self):
        """No ``type=float`` flag is left to take NaN."""
        import argparse

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from walk(child)
                else:
                    yield action

        assert not [a.dest for a in walk(build_parser()) if a.type is float]


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(["simulate", "--workers", "4", "--iterations", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated epoch" in out
        assert "miss rate" in out

    def test_all_systems_run(self, capsys):
        for system in ("dram_ps", "pmem_oe", "ori_cache", "pmem_hash", "tf_ps"):
            assert main(
                ["simulate", "--system", system, "--workers", "4",
                 "--iterations", "5"]
            ) == 0

    def test_with_checkpointing(self, capsys):
        code = main([
            "simulate", "--workers", "4", "--iterations", "20",
            "--checkpoint", "batch_aware", "--interval-seconds", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out


class TestTrain:
    def test_short_training(self, capsys):
        code = main([
            "train", "--batches", "8", "--fields", "4", "--vocab", "50",
            "--dim", "8", "--checkpoint-every", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss" in out
        assert "final" in out

    def test_crash_and_recover(self, capsys):
        code = main([
            "train", "--batches", "12", "--fields", "4", "--vocab", "50",
            "--dim", "8", "--checkpoint-every", "4", "--crash-at", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "injected crash" in out
        assert "resumed from checkpoint" in out or "restarting from scratch" in out

    def test_async_mode_plain(self, capsys):
        code = main([
            "train", "--mode", "async", "--batches", "12", "--fields", "4",
            "--vocab", "50", "--dim", "8", "--workers", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode              : async" in out
        assert "quiesced" in out

    def test_async_mode_defended_and_hostile(self, tmp_path, capsys):
        metrics = tmp_path / "async.metrics.json"
        code = main([
            "train", "--mode", "async", "--batches", "18", "--fields", "4",
            "--vocab", "50", "--dim", "8", "--workers", "6",
            "--staleness-k", "3", "--aggregator", "trimmed_mean",
            "--hostile", "0.17", "--metrics-out", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=3, aggregator trimmed_mean" in out
        assert "1/6 byzantine" in out
        import json

        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "repro_async_pulls_admitted" in names
        assert "repro_async_aggregator_folds" in names

    def test_async_mode_rejects_crash_at(self, capsys):
        code = main([
            "train", "--mode", "async", "--batches", "8", "--crash-at", "4",
        ])
        assert code == 2
        assert "sync-mode flag" in capsys.readouterr().err


class TestPlanAndWorkload:
    def test_plan(self, capsys):
        assert main([
            "plan", "--model-gb", "500", "--mttf-hours", "12", "--ckpt-cost-s", "15",
        ]) == 0
        out = capsys.readouterr().out
        assert "DRAM-PS: 2 x" in out
        assert "PMem-OE: 1 x" in out
        assert "recovery estimate" in out
        # Young (1974): sqrt(2 * 15 s * 43 200 s) = 1 138.4 s
        assert "Young-optimal checkpoint interval: 19.0 min" in out

    def test_workload_matches_table2(self, capsys):
        assert main([
            "workload", "--keys", "200000", "--batches", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "85." in out  # top 0.05 % share
        assert "exponential fit" in out

    @pytest.mark.parametrize("argv", [
        ["--keys", "0"],
        ["--keys", "3", "--batches", "200", "--batch-size", "64"],  # < one key per band
    ])
    def test_workload_key_space_too_small_exits_2(self, capsys, argv):
        assert main(["workload", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: num_keys must be >=") and err.count("\n") == 1


class TestBench:
    """`bench show` / `bench run`: what `reproduce` did, from the registry."""

    def test_show_prints_table_from_recorded_rows(self, tmp_path, capsys):
        from repro.bench import RunRecord, Trajectory

        trajectory = Trajectory("fig7_pipeline")
        for workers, oe in ((4, 1.009), (16, 1.061)):
            trajectory.append(RunRecord(
                bench="fig7_pipeline", params={"workers": workers}, seed=0,
                scale="full",
                metrics={"oe_ratio": oe, "ori_ratio": 2.0, "dram_vs_4gpu": 0.36},
            ))
        trajectory.save(tmp_path)
        code = main(["bench", "show", "fig7_pipeline", "--baseline", str(tmp_path)])
        out = capsys.readouterr().out
        assert "PMem-OE   @ 4 GPUs" in out and "paper: 1.012x" in out
        assert "measured: 1.009x" in out and "measured: 1.061x" in out
        # the recorded Ori-Cache ratio at 4 GPUs is past the paper's 25 %
        assert code == 1 and "FAIL: fig7_pipeline [workers=4]" in out

    def test_show_unknown_name(self, capsys):
        assert main(["bench", "show", "not_an_experiment"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_unknown_name_or_param(self, capsys):
        assert main(["bench", "run", "not_an_experiment", "--smoke"]) == 2
        assert main(["bench", "run", "table1_devices", "--set", "bogus=1"]) == 2

    def test_run_serving_records_a_verdict_slo_renders(self, tmp_path, capsys):
        """The serving bench's chaos soak writes the SLO verdict `repro slo`
        reads: a torn or beyond-k row, or an exhausted budget, exits 1."""
        assert main(["bench", "run", "serving", "--smoke", "--record", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["slo", str(tmp_path / "slo_serving.json")]) == 0
        assert "serving_staleness" in capsys.readouterr().out

    def test_run_records_only_where_told(self, tmp_path, capsys):
        import pathlib

        results = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/results"

        def committed():
            return {path.name: path.stat().st_mtime_ns for path in results.iterdir()}

        before = committed()
        assert main(["bench", "run", "table1_devices", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "read_ratio = 2.9" in out and "1 ok, 0 error(s), 0 check" in out
        assert main(["bench", "run", "table1_devices", "--smoke",
                     "--record", str(tmp_path)]) == 0
        assert f"-> {tmp_path / 'BENCH_table1_devices.json'}" in capsys.readouterr().out
        assert (tmp_path / "BENCH_table1_devices.json").is_file()
        assert committed() == before


class TestSweep:
    def test_a_broken_paper_tolerance_fails_the_sweep(self, tmp_path, capsys):
        """`repro sweep` is the paper-fidelity gate: exit 1 on any check,
        tolerance or trend failure; without --out nothing is recorded."""
        import json

        verdict = tmp_path / "sweep.json"
        # two batches are far too few to show Table II's skew
        code = main(["sweep", "--grid", "bench=table2_skew; batches=2",
                     "--jobs", "1", "--verdict-out", str(verdict)])
        captured = capsys.readouterr()
        assert code == 1 and "1 ok, 0 error(s)" in captured.out
        assert "CHECK table2_skew [batches=2 batch_size=256]: top 1.00%" in captured.err
        summary = json.loads(verdict.read_text())
        assert summary["paths"] == [] and len(summary["check_failures"]) == 2
        assert main(["sweep", "--grid", "bench=table2_skew", "--jobs", "1"]) == 0


class TestObservabilityFlags:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        code = main([
            "simulate", "--workers", "4", "--iterations", "10",
            "--lookahead", "2",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "metrics" in out
        trace = json.loads(trace_path.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "gpu.compute" in names and "maintain.deferred" in names
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema"] == "repro-metrics-v1"

    def test_simulate_prometheus_extension(self, tmp_path):
        metrics_path = tmp_path / "run.prom"
        assert main([
            "simulate", "--workers", "2", "--iterations", "5",
            "--metrics-out", str(metrics_path),
        ]) == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_pull_latency_seconds histogram" in text
        assert "repro_pull_latency_seconds_quantile" in text

    def test_train_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main([
            "train", "--batches", "6", "--fields", "4", "--vocab", "50",
            "--dim", "8", "--checkpoint-every", "4",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "train.step" in names and "server.pull" in names
        assert "cache.maintain" in names

    def test_metrics_subcommand_renders(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert main([
            "simulate", "--workers", "2", "--iterations", "5",
            "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "histograms" in out
        assert "per-layer time breakdown" in out

    def test_metrics_subcommand_missing_file(self, capsys):
        assert main(["metrics", "/nonexistent/nope.json"]) == 2
        assert "no such snapshot" in capsys.readouterr().err

    def test_metrics_subcommand_rejects_non_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other"}')
        assert main(["metrics", str(bad)]) == 2
        assert "not a repro-metrics-v1" in capsys.readouterr().err


def _slo_verdict(tmp_path, bad: int):
    import json

    from repro.obs import SLOTracker

    tracker = SLOTracker()
    tracker.availability("serving_availability", budget=0.1)
    tracker.record("serving_availability", good=10 - bad, bad=bad)
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(tracker.verdict()))
    return str(path)


class TestJsonReaders:
    """`slo`, `metrics` and `trace`: exit 2 on a usage error, and only
    `slo`'s exhausted budget reads as exit 1."""

    def test_slo_within_budget_exits_0(self, tmp_path, capsys):
        assert main(["slo", _slo_verdict(tmp_path, bad=0)]) == 0
        assert "serving_availability" in capsys.readouterr().out

    def test_slo_exhausted_budget_exits_1(self, tmp_path, capsys):
        assert main(["slo", _slo_verdict(tmp_path, bad=5)]) == 1
        assert "serving_availability" in capsys.readouterr().out

    def test_slo_missing_file_exits_2(self, capsys):
        assert main(["slo", "/nonexistent/slo.json"]) == 2
        assert "no such verdict file" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[]", '"x"'])
    @pytest.mark.parametrize("command", [
        ["slo"], ["metrics"], ["trace", "show"], ["trace", "merge", "-o", "merged.json"],
    ])
    def test_non_object_document_exits_2(
        self, tmp_path, monkeypatch, capsys, command, document
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.json").write_text(document)
        assert main([*command, "doc.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must hold a JSON object" in err

    @pytest.mark.parametrize("document", [
        "{}", '{"traceEvents": []}',
        '{"otherData": {"schema": "repro-trace-v1"}}',
        '{"traceEvents": [], "otherData": {"schema": "repro-metrics-v1"}}',
    ])
    def test_trace_show_refuses_a_document_that_is_not_a_trace(
        self, tmp_path, capsys, document
    ):
        path = tmp_path / "doc.json"
        path.write_text(document)
        assert main(["trace", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a repro-trace-v1")
        assert captured.err.count("\n") == 1

    def test_trace_merge_names_the_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        assert main(["trace", "merge", "-o", str(tmp_path / "m.json"), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "not valid JSON" in err
