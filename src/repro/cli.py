"""Command-line interface.

Nine subcommands::

    repro simulate   --system pmem_oe --workers 16 ...   # one simulated epoch
    repro train      --batches 200 --crash-at 120 ...    # functional DeepFM demo
    repro plan       --model-gb 500 --mttf-hours 12      # sizing & intervals
    repro workload   --keys 500000 ...                   # Table II skew check
    repro metrics    run.metrics.json                    # pretty-print a snapshot
    repro trace      merge node0.json node1.json -o m.json  # multi-node timeline
    repro slo        slo_serving.json                    # render an SLO verdict
    repro sweep      --grid benchmarks/grids/paper.json --full   # every figure
    repro bench      list | run NAME --smoke | show NAME | gate --baseline DIR ...

The experiments are registered benches, run through ``repro bench``:
``bench run ablation_network_faults`` trains over a lossy wire and
checks the weights against the clean wire's, ``bench run serving``
prices the online serving tier and audits its train-while-serve chaos
soak. ``simulate`` and ``train`` accept ``--trace-out FILE.json``
(Chrome ``trace_event`` timeline, open in Perfetto /
``chrome://tracing``) and ``--metrics-out FILE`` (``.json`` snapshot or
Prometheus text; the ``.json`` form is what ``repro metrics``
renders). ``repro trace merge`` stitches per-node trace files into one
causally flow-linked timeline; ``repro trace show`` summarizes any
trace file in the terminal. ``repro slo`` renders the machine-readable
SLO verdict that ``bench run serving --record DIR`` writes. The three
readers exit 2 on a missing file, invalid JSON or a document that is
not a JSON object.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CheckpointMode,
    PrefetchConfig,
    ServerConfig,
)
from repro.errors import ConfigError
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import AccessTraceAnalyzer

GB = 1 << 30


def _obs_sinks(args: argparse.Namespace):
    """(tracer, registry) from ``--trace-out`` / ``--metrics-out``."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer() if getattr(args, "trace_out", None) else None
    registry = MetricsRegistry() if getattr(args, "metrics_out", None) else None
    return tracer, registry


def _write_obs(args: argparse.Namespace, tracer, registry) -> None:
    """Serialize whatever sinks were requested."""
    from repro.obs import write_chrome_trace, write_metrics

    if tracer is not None and args.trace_out:
        events = write_chrome_trace(tracer, args.trace_out)
        print(f"trace             : {events} events -> {args.trace_out}")
    if registry is not None and args.metrics_out:
        fmt = write_metrics(registry, args.metrics_out)
        print(f"metrics           : {len(registry)} series ({fmt}) "
              f"-> {args.metrics_out}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses

    profile = DEFAULT_PROFILE
    system = SystemKind(args.system)
    checkpoint = CheckpointConfig.none()
    if args.checkpoint != "none":
        mode = CheckpointMode(args.checkpoint)
        # A provisional interval from the profile's nominal epoch; the
        # simulator scales intervals in simulated seconds.
        checkpoint = CheckpointConfig(mode, interval_seconds=args.interval_seconds)
    tracer, registry = _obs_sinks(args)
    server_config = dataclasses.replace(
        profile.server_config(args.nodes),
        replicas=args.replicas,
        lease_s=args.lease_ms * 1e-3,
    )
    simulator = TrainingSimulator(
        system,
        profile.cluster_config(args.workers),
        server_config,
        profile.cache_config(paper_mb=args.cache_mb),
        checkpoint,
        WorkloadGenerator(profile.workload_config(args.skew)),
        prefetch=PrefetchConfig(lookahead=args.lookahead),
        reshard_at=args.reshard_at,
        reshard_to=args.reshard_to,
        mttf_s=args.mttf,
        tracer=tracer,
        registry=registry,
    )
    iterations = args.iterations or profile.iterations(args.workers)
    result = simulator.run(iterations)
    print(f"system            : {system.value}")
    print(f"workers           : {args.workers}")
    print(f"iterations        : {result.iterations}")
    print(f"simulated epoch   : {result.sim_seconds:.3f} s")
    print(f"per iteration     : {result.seconds_per_iteration * 1e3:.2f} ms")
    print(f"cache miss rate   : {result.miss_rate:.2%}")
    print(f"checkpoints       : {result.checkpoints_completed}")
    print(f"checkpoint pause  : {result.checkpoint_pause_seconds:.3f} s")
    print(f"gpu / net / pull / push (s): "
          f"{result.gpu_seconds:.2f} / {result.net_seconds:.2f} / "
          f"{result.pull_service_seconds:.2f} / {result.push_service_seconds:.2f}")
    if args.lookahead > 0:
        print(f"prefetch          : lookahead {args.lookahead}, "
              f"{result.prefetch_requests} overlapped pulls "
              f"({result.prefetch_overlapped_seconds:.3f} s hidden), "
              f"{result.total_requests} demand pulls on the critical path")
    if result.migrations_completed:
        moved = result.migration_keys_moved
        total = result.migration_keys_total or 1
        print(f"reshard           : {moved}/{result.migration_keys_total} keys moved "
              f"({moved / total:.1%}), "
              f"pause {result.migration_pause_seconds * 1e3:.3f} ms")
    if result.failures_injected:
        print(f"failures          : {result.failures_injected} node kills "
              f"(MTTF {args.mttf:.1f} s, {args.replicas} replica(s))")
        if result.failovers_completed:
            print(f"failover pause    : {result.failover_pause_seconds:.3f} s "
                  f"client-visible ({result.failovers_completed} promotions, "
                  f"lease {args.lease_ms:.0f} ms), "
                  f"{result.rereplication_seconds:.3f} s re-replication "
                  f"in background")
        if result.recovery_pause_seconds:
            print(f"recovery pause    : {result.recovery_pause_seconds:.3f} s "
                  f"(no replica; checkpoint-recovery rebuild)")
    _write_obs(args, tracer, registry)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.optimizers import PSAdagrad
    from repro.core.server import OpenEmbeddingServer
    from repro.dlrm.criteo import CriteoSynthetic
    from repro.dlrm.deepfm import DeepFM
    from repro.dlrm.optimizers import Adam
    from repro.dlrm.trainer import SynchronousTrainer

    tracer, registry = _obs_sinks(args)
    dataset = CriteoSynthetic(
        num_fields=args.fields, vocab_per_field=args.vocab, seed=args.seed
    )
    if args.mode == "async":
        return _train_async(args, dataset, tracer, registry)
    server_config = ServerConfig(
        num_nodes=args.nodes,
        embedding_dim=args.dim,
        pmem_capacity_bytes=1 << 30,
        seed=args.seed,
    )
    cache_config = CacheConfig(capacity_bytes=args.cache_kb << 10)

    def build():
        server = OpenEmbeddingServer(
            server_config, cache_config, PSAdagrad(lr=0.05), tracer=tracer
        )
        model = DeepFM(
            args.fields, args.dim, hidden=(64, 32), use_first_order=False,
            seed=args.seed,
        )
        return SynchronousTrainer(
            server, model, dataset,
            num_workers=args.workers, batch_size=args.batch_size,
            dense_optimizer=Adam(2e-3), checkpoint_every=args.checkpoint_every,
            prefetch=PrefetchConfig(lookahead=args.lookahead),
            tracer=tracer,
        )

    trainer = build()
    crash_at = args.crash_at if args.crash_at and args.crash_at < args.batches else None
    first_leg = crash_at or args.batches
    for result in trainer.train(first_leg):
        if result.batch_id % 20 == 0:
            print(f"batch {result.batch_id:5d}  loss {result.loss:.4f}")
    if crash_at is not None:
        from repro.errors import RecoveryError

        print(f"-- injected crash after batch {crash_at}; recovering ...")
        pools, __, dense = trainer.crash()
        model = DeepFM(
            args.fields, args.dim, hidden=(64, 32), use_first_order=False,
            seed=args.seed,
        )
        try:
            trainer = SynchronousTrainer.recover(
                pools, dense, model=model, dataset=dataset,
                server_config=server_config, cache_config=cache_config,
                ps_optimizer=PSAdagrad(lr=0.05),
                num_workers=args.workers, batch_size=args.batch_size,
                dense_optimizer=Adam(2e-3), checkpoint_every=args.checkpoint_every,
                prefetch=PrefetchConfig(lookahead=args.lookahead),
                tracer=tracer,
            )
            print(f"-- resumed from checkpoint of batch {trainer.next_batch - 1}")
        except RecoveryError:
            print("-- no completed checkpoint yet; restarting from scratch")
            trainer = build()
        for result in trainer.train(args.batches - trainer.next_batch):
            if result.batch_id % 20 == 0:
                print(f"batch {result.batch_id:5d}  loss {result.loss:.4f}")
    losses = trainer.loss_history
    print(f"final: {trainer.backend.num_entries} entries, "
          f"mean loss last 20 batches {np.mean(losses[-20:]):.4f}")
    if trainer.pipeline is not None:
        stats = trainer.pipeline.stats
        print(f"prefetch: hit rate {stats.hit_rate:.1%}, "
              f"{stats.demand_keys} demand / {stats.prefetch_keys} prefetched "
              f"/ {stats.patched_keys} patched keys")
    if registry is not None:
        trainer.backend.collect_metrics(registry)
    _write_obs(args, tracer, registry)
    return 0


def _train_async(args: argparse.Namespace, dataset, tracer, registry) -> int:
    """Bounded-staleness asynchronous mode of ``repro train``."""
    from repro.core.optimizers import PSAdagrad
    from repro.core.server import OpenEmbeddingServer
    from repro.dlrm.async_trainer import AsynchronousTrainer
    from repro.dlrm.deepfm import DeepFM
    from repro.dlrm.optimizers import Adam
    from repro.failure.injection import hostile_fleet

    if args.crash_at:
        print("error: --crash-at is a sync-mode flag; async recovery runs "
              "through `checkpoint(quiesce=True)` (see docs/ASYNC.md)",
              file=sys.stderr)
        return 2
    defended = args.staleness_k is not None or args.aggregator != "none"
    server_config = ServerConfig(
        num_nodes=args.nodes,
        embedding_dim=args.dim,
        pmem_capacity_bytes=1 << 30,
        seed=args.seed,
        staleness_bound=args.staleness_k,
        aggregator=args.aggregator,
        aggregator_workers=args.workers if args.aggregator != "none" else 0,
    )
    cache_config = CacheConfig(capacity_bytes=args.cache_kb << 10)
    fleet = None
    byzantine = round(args.hostile * args.workers)
    if args.hostile > 0:
        fleet = hostile_fleet(
            args.workers, byzantine, args.byzantine_mode,
            scale=args.byzantine_scale, duplicate_prob=0.1, delay_prob=0.1,
            seed=args.seed,
        )
    server = OpenEmbeddingServer(
        server_config, cache_config, PSAdagrad(lr=0.05), tracer=tracer
    )
    model = DeepFM(
        args.fields, args.dim, hidden=(64, 32), use_first_order=False,
        seed=args.seed,
    )
    trainer = AsynchronousTrainer(
        server, model, dataset,
        num_workers=args.workers, batch_size=args.batch_size,
        staleness=args.staleness,
        dense_optimizer=Adam(2e-3),
        prefetch=PrefetchConfig(lookahead=args.lookahead),
        worker_faults=fleet,
        track_progress=True if defended else None,
        tracer=tracer,
        registry=registry,
    )
    losses = trainer.run_steps(args.batches)
    for step, loss in enumerate(losses):
        if step % 20 == 0:
            print(f"step {step:5d}  loss {loss:.4f}")
    missed = trainer.checkpoint(quiesce=True)
    stats = trainer.stats
    print(f"mode              : async (staleness {args.staleness}, "
          f"k={args.staleness_k if args.staleness_k is not None else 'off'}, "
          f"aggregator {args.aggregator})")
    if fleet is not None:
        print(f"hostile fleet     : {byzantine}/{args.workers} byzantine "
              f"({args.byzantine_mode} x{args.byzantine_scale:g}), "
              f"{stats.byzantine_pushes} corrupted pushes injected")
    print(f"admission         : {stats.staleness_rejects} stale pulls "
          f"rejected, {stats.skipped_batches} batches skipped, "
          f"{stats.straggle_skips} straggler stalls")
    print(f"pushes            : {stats.duplicate_pushes} duplicated, "
          f"{stats.delayed_pushes} delayed "
          f"(dedup + quorum folds absorb both)")
    print(f"checkpoint        : quiesced, {missed} pushes left in flight")
    print(f"final: {server.num_entries} entries, "
          f"mean loss last 20 steps {np.mean(losses[-20:]):.4f}")
    if registry is not None:
        server.collect_metrics(registry)
    _write_obs(args, tracer, registry)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.recovery import estimate_recovery_seconds
    from repro.cost.pricing import (
        R6E_13XLARGE,
        RE6P_13XLARGE,
        cost_per_epoch,
        deployment_for_model,
    )
    from repro.failure.mttf import young_interval_seconds

    model_bytes = int(args.model_gb * GB)
    entries = model_bytes // (args.dim * 4)
    print(f"model: {args.model_gb:.0f} GB, ~{entries / 1e9:.2f} B entries (dim {args.dim})")
    for instance, name in ((R6E_13XLARGE, "DRAM-PS"), (RE6P_13XLARGE, "PMem-OE")):
        deployment = deployment_for_model(model_bytes, instance, name)
        print(f"  {name:>8}: {deployment.machines} x {instance.name} "
              f"= ${deployment.dollars_per_hour:.2f}/h "
              f"(${cost_per_epoch(deployment, args.epoch_hours):.1f}/epoch "
              f"at {args.epoch_hours:.2f} h)")
    recovery = estimate_recovery_seconds(
        entries=entries, versions=entries, entry_bytes=args.dim * 4
    )
    interval = young_interval_seconds(args.ckpt_cost_s, args.mttf_hours * 3600)
    print(f"  PMem-OE recovery estimate: {recovery:.0f} s")
    print(f"  Young-optimal checkpoint interval: {interval / 60:.1f} min "
          f"(ckpt cost {args.ckpt_cost_s:.0f} s, MTTF {args.mttf_hours:.0f} h)")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.config import WorkloadConfig

    generator = WorkloadGenerator(
        WorkloadConfig(
            num_keys=args.keys,
            features_per_sample=args.features,
            skew=args.skew,
            seed=args.seed,
        )
    )
    stream = generator.access_stream(args.batches, args.batch_size)
    analyzer = AccessTraceAnalyzer(stream)
    report = analyzer.skew_report(of_keyspace=args.keys)
    print(f"{report.total_accesses} accesses, {report.distinct_keys} distinct keys")
    for fraction, share in report.top_shares.items():
        print(f"  top {fraction:.2%} of key space -> {share:.1%} of accesses")
    a, b = analyzer.fit_exponential()
    print(f"  exponential fit: freq = {a:.1f} * exp(-{b:.1f} * rank/N)")
    return 0


def _load_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``. A missing file, invalid JSON or a
    document that is not an object raises :class:`ConfigError`, which
    :func:`main` turns into exit 2 (a usage error, not a verdict)."""
    import json
    import pathlib

    path = pathlib.Path(path)
    if not path.is_file():
        raise ConfigError(f"no such {what} file: {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ConfigError(
            f"{path} must hold a JSON object, not {type(document).__name__}"
        )
    return document


def _cmd_trace(args: argparse.Namespace) -> int:
    """Merge per-node traces / summarize a trace file."""
    from repro.obs import merge_trace_files, summarize_trace

    try:
        if args.action == "merge":
            for path in args.files:
                if not os.path.isfile(path):
                    raise ConfigError(f"no such trace file: {path}")
            merged = merge_trace_files(args.files, out=args.out)
            flows = merged["otherData"]["flows"]
            print(f"merged {len(args.files)} trace(s), "
                  f"{len(merged['traceEvents'])} events, {flows} cross-node "
                  f"flow link(s) -> {args.out}")
        else:
            print(summarize_trace(_load_json_object(args.file, "trace")))
    except BrokenPipeError:
        # Summaries are routinely piped into `head` / a pager; a closed
        # pipe is a normal exit, not a traceback.
        sys.stderr.close()
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Render a machine-readable repro-slo-v1 verdict file."""
    from repro.obs import render_verdict

    verdict = _load_json_object(args.verdict, "verdict")
    print(render_verdict(verdict))
    return 0 if verdict.get("ok") else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Pretty-print a JSON metrics snapshot written by --metrics-out."""
    from repro.obs import render_snapshot

    try:
        print(render_snapshot(_load_json_object(args.snapshot, "snapshot")))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}; `repro metrics` reads the .json form of "
              "--metrics-out", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep`` and ``repro bench run NAME`` (a one-bench grid
    whose ``--set`` values are grid clauses): expand the grid, run its
    cells through the one recorder, and hold every bench's rows to its
    check, paper tolerances and cross-point trends."""
    import json
    import pathlib

    from repro.bench import REGISTRY, SweepRunner, discover, load_grid, parse_grid

    one = getattr(args, "name", None)
    discover()
    if one is not None:
        grid = parse_grid("; ".join([f"bench={one}", *args.set]))
    elif pathlib.Path(args.grid).is_file():
        grid = load_grid(args.grid)
    else:
        grid = parse_grid(args.grid)
    runner = SweepRunner(
        results_dir=args.out,
        jobs=args.jobs if args.jobs > 0 else (os.cpu_count() or 1),
        scale="smoke" if args.smoke else "full",
        base_seed=args.seed,
        repeats=args.repeats,
    )
    cells = runner.expand(grid)
    benches = sorted({cell.bench for cell in cells})
    print(f"sweep: {len(cells)} cell(s) x {args.repeats} repeat(s) over "
          f"{len(benches)} bench(es) [{', '.join(benches)}], "
          f"jobs={runner.jobs}, scale={runner.scale}")
    result = runner.run(cells, resume=args.resume, progress=print)
    failures = []
    for bench in benches:
        failures += REGISTRY.get(bench).verify([
            (record.params, record.metrics)
            for record in result.records
            if record.bench == bench and record.status == "ok"
        ])
    for record in result.records:
        if record.status == "error":
            # one bench: its whole traceback; a sweep: the last line
            lines = (record.error or "unknown").strip().splitlines()
            detail = "\n".join(lines if one else lines[-1:])
            print(f"  ERROR {record.bench} {record.fingerprint}: {detail}",
                  file=sys.stderr)
        elif one:
            for key, value in sorted(record.metrics.items()):
                print(f"  {key} = {value}")
    print(f"done: {result.ok} ok, {result.errors} error(s), "
          f"{len(failures)} check failure(s), {result.skipped} skipped (resume)")
    for path in result.paths:
        print(f"  -> {path}")
    for failure in failures:
        print(f"  CHECK {failure}", file=sys.stderr)
    if args.verdict_out:
        summary = {
            "schema": "repro-bench-sweep-v1",
            "scale": runner.scale,
            "cells": len(cells),
            "ok": result.ok,
            "errors": result.errors,
            "skipped": result.skipped,
            "check_failures": failures,
            "benches": benches,
            "paths": [str(p) for p in result.paths],
        }
        with open(args.verdict_out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return 1 if result.errors or failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Registry-driven benchmark actions: list / show / gate (``bench
    run`` is :func:`_cmd_sweep`)."""
    import json

    from repro.bench import REGISTRY, Trajectory, discover, evaluate_gate, render_gate

    try:
        discover()
        if args.action == "list":
            for name in REGISTRY.names():
                spec = REGISTRY.get(name)
                headlines = ", ".join(sorted(spec.headline)) or "-"
                print(f"{name:28s} [{headlines}]")
                if args.verbose:
                    params = ", ".join(
                        f"{p.name}={p.default!r}" for p in spec.params.values()
                    )
                    print(f"    params: {params or '-'}")
                    if spec.description:
                        print(f"    {spec.description}")
            return 0
        if args.action == "show":
            spec = REGISTRY.get(args.name)
            path = Trajectory.path_for(args.baseline, args.name)
            runs = Trajectory.load(path).ok_runs(scale=args.scale)
            rows = [(run.params, run.metrics) for run in runs]
            print(f"=== {spec.name}: {len(rows)} {args.scale} row(s) of {path} ===")
            print(spec.description)
            print("\n".join(spec.table(rows)))
            failures = spec.verify(rows)
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1 if failures else 0
        verdict = evaluate_gate(
            args.baseline, args.current or args.baseline,
            scale=args.scale, benches=args.bench or None,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_gate(verdict))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(verdict, handle, indent=2)
            handle.write("\n")
        print(f"verdict -> {args.out}")
    return 0 if verdict["ok"] else 1


def _finite(text: str) -> float:
    """The ``type`` of every float flag: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE.json", default=None,
        help="write a Chrome trace_event timeline (open in Perfetto or "
             "chrome://tracing); enables span tracing for the run",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a metrics export: .json -> snapshot readable by "
             "`repro metrics`, anything else -> Prometheus text format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OpenEmbedding reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one simulated training epoch")
    simulate.add_argument(
        "--system",
        choices=[s.value for s in SystemKind],
        default=SystemKind.PMEM_OE.value,
    )
    simulate.add_argument("--workers", type=int, default=16)
    simulate.add_argument("--iterations", type=int, default=None)
    simulate.add_argument("--cache-mb", type=_finite, default=2048.0,
                          help="paper-equivalent cache size of all nodes (MB of a 500 GB model)")
    simulate.add_argument("--skew", type=_finite, default=1.0)
    simulate.add_argument(
        "--checkpoint",
        choices=["none", "batch_aware", "incremental", "sparse_only"],
        default="none",
    )
    simulate.add_argument("--interval-seconds", type=_finite, default=1.0)
    simulate.add_argument("--lookahead", type=int, default=0,
                          help="prefetch the next N batches' keys inside the "
                               "overlap window (PMem-OE only; 0 disables)")
    simulate.add_argument("--nodes", type=int, default=1,
                          help="PS node count the run starts with (baselines: 1 only)")
    simulate.add_argument("--reshard-at", type=int, default=None,
                          help="live-reshard the PS after this many "
                               "iterations; prices the migration pause and "
                               "continues on the new node count")
    simulate.add_argument("--reshard-to", type=int, default=None,
                          help="target PS node count for --reshard-at "
                               "(default: one more node)")
    simulate.add_argument("--mttf", type=_finite, default=None,
                          help="mean time to failure in simulated seconds; "
                               "samples a Poisson kill schedule and prices "
                               "each node death (failover or recovery)")
    simulate.add_argument("--replicas", type=int, default=1,
                          help="replicas per shard: 2 answers kills with "
                               "hot failover, 1 with checkpoint recovery")
    simulate.add_argument("--lease-ms", type=_finite, default=500.0,
                          help="failure-detector lease in milliseconds "
                               "(bounds detection latency)")
    _add_obs_flags(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    train = sub.add_parser("train", help="functional DeepFM training demo")
    train.add_argument("--mode", choices=["sync", "async"], default="sync",
                       help="sync: lock-step workers with barrier "
                            "checkpoints; async: bounded-staleness "
                            "round-robin workers (see docs/ASYNC.md)")
    train.add_argument("--staleness", type=int, default=1,
                       help="async: scheduler steps between computing and "
                            "applying a gradient (worker-side delay)")
    train.add_argument("--staleness-k", type=int, default=None,
                       metavar="K",
                       help="async: PS-side admission bound; pulls lagging "
                            "more than K batches behind the slowest "
                            "admitted worker are rejected with a typed "
                            "StalenessError (default: no bound)")
    train.add_argument("--aggregator",
                       choices=["none", "mean", "trimmed_mean", "median",
                                "krum"],
                       default="none",
                       help="async: robust per-key gradient fold buffered "
                            "at the PS before apply (default: none, "
                            "apply-as-they-arrive)")
    train.add_argument("--hostile", type=_finite, default=0.0,
                       metavar="FRACTION",
                       help="async: turn this fraction of workers "
                            "Byzantine (seeded sign-flip/noise gradients "
                            "plus duplicated and delayed pushes)")
    train.add_argument("--byzantine-mode",
                       choices=["sign_flip", "scaled_noise", "zero_drop"],
                       default="sign_flip",
                       help="async: gradient corruption the hostile "
                            "workers inject")
    train.add_argument("--byzantine-scale", type=_finite, default=6.0,
                       help="async: amplification of the corrupted "
                            "gradients")
    train.add_argument("--batches", type=int, default=100)
    train.add_argument("--workers", type=int, default=2)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--fields", type=int, default=8)
    train.add_argument("--vocab", type=int, default=400)
    train.add_argument("--dim", type=int, default=16)
    train.add_argument("--nodes", type=int, default=2)
    train.add_argument("--cache-kb", type=int, default=64)
    train.add_argument("--checkpoint-every", type=int, default=20)
    train.add_argument("--crash-at", type=int, default=None,
                       help="inject a crash after this batch and recover")
    train.add_argument("--lookahead", type=int, default=0,
                       help="route pulls through the lookahead prefetch "
                            "pipeline (0 keeps the serial protocol)")
    train.add_argument("--seed", type=int, default=7)
    _add_obs_flags(train)
    train.set_defaults(handler=_cmd_train)

    plan = sub.add_parser("plan", help="deployment sizing and reliability planning")
    plan.add_argument("--model-gb", type=_finite, default=500.0)
    plan.add_argument("--dim", type=int, default=64)
    plan.add_argument("--epoch-hours", type=_finite, default=5.33)
    plan.add_argument("--mttf-hours", type=_finite, default=12.0)
    plan.add_argument("--ckpt-cost-s", type=_finite, default=15.0)
    plan.set_defaults(handler=_cmd_plan)

    workload = sub.add_parser("workload", help="access-skew statistics (Table II)")
    workload.add_argument("--keys", type=int, default=500_000)
    workload.add_argument("--features", type=int, default=4)
    workload.add_argument("--skew", type=_finite, default=1.0)
    workload.add_argument("--batches", type=int, default=100)
    workload.add_argument("--batch-size", type=int, default=256)
    workload.add_argument("--seed", type=int, default=1)
    workload.set_defaults(handler=_cmd_workload)

    metrics = sub.add_parser(
        "metrics", help="pretty-print a JSON metrics snapshot (--metrics-out)"
    )
    metrics.add_argument("snapshot", help="snapshot file written by --metrics-out")
    metrics.set_defaults(handler=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="merge / summarize Chrome trace_event files"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_merge = trace_sub.add_parser(
        "merge",
        help="stitch per-node --trace-out files into one flow-linked timeline",
    )
    trace_merge.add_argument("files", nargs="+",
                             help="per-node trace files (client first reads best)")
    trace_merge.add_argument("-o", "--out", required=True, metavar="FILE.json",
                             help="merged trace output (open in Perfetto)")
    trace_merge.set_defaults(handler=_cmd_trace)
    trace_show = trace_sub.add_parser(
        "show", help="terminal summary of a (merged or single-node) trace"
    )
    trace_show.add_argument("file", help="trace file to summarize")
    trace_show.set_defaults(handler=_cmd_trace)

    slo = sub.add_parser(
        "slo", help="render a machine-readable SLO verdict (repro-slo-v1)"
    )
    slo.add_argument("verdict",
                     help="verdict file from bench run serving --record DIR "
                          "(DIR/slo_serving.json)")
    slo.set_defaults(handler=_cmd_slo)

    sweep = sub.add_parser(
        "sweep",
        help="expand a parameter grid over registered benchmarks, fan it out "
             "across worker processes and hold the rows to every check, paper "
             "tolerance and trend (--out records repro-bench-v1 trajectories)",
    )
    sweep.add_argument(
        "--grid", required=True, metavar="SPEC|FILE.json",
        help="inline grid like 'bench=prefetch,hotpath; "
             "lookahead[bench=prefetch]=0,2,4' or a JSON grid file",
    )
    scale_group = sweep.add_mutually_exclusive_group()
    scale_group.add_argument("--smoke", action="store_true",
                             help="run every cell at smoke scale (default)")
    scale_group.add_argument("--full", dest="smoke", action="store_false",
                             help="run every cell at full scale")
    sweep.set_defaults(smoke=True)
    sweep.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = one per available core)")
    sweep.add_argument("--out", metavar="DIR", default=None,
                       help="record into DIR/BENCH_<name>.json "
                            "(default: run, check and report, write nothing)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed; per-cell seeds are derived from it")
    sweep.add_argument("--repeats", type=int, default=1,
                       help="repeats per cell (gate takes the best)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip cells --out already holds at this scale")
    sweep.add_argument("--verdict-out", metavar="FILE.json", default=None,
                       help="write a machine-readable sweep summary")
    sweep.set_defaults(handler=_cmd_sweep)

    bench = sub.add_parser(
        "bench", help="registry-driven benchmarks: list / run / show / gate"
    )
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_list = bench_sub.add_parser(
        "list", help="list registered benchmarks and their gated metrics"
    )
    bench_list.add_argument("-v", "--verbose", action="store_true",
                            help="also show parameters and descriptions")
    bench_list.set_defaults(handler=_cmd_bench)
    bench_run = bench_sub.add_parser(
        "run", help="run one registered benchmark through the registry"
    )
    bench_run.add_argument("name", help="benchmark name (see `bench list`)")
    bench_run.add_argument("--smoke", action="store_true",
                           help="run at smoke scale")
    bench_run.add_argument("--set", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="override one parameter (repeatable; "
                                "KEY=V1,V2 runs one cell per value)")
    bench_run.add_argument("--record", metavar="DIR", default=None, dest="out",
                           help="append the record to DIR/BENCH_<name>.json")
    bench_run.add_argument("--seed", type=int, default=0)
    bench_run.set_defaults(handler=_cmd_sweep, jobs=1, repeats=1, resume=False,
                           verdict_out=None)
    bench_show = bench_sub.add_parser(
        "show",
        help="print a benchmark's paper-vs-measured table from its recorded "
             "rows; exit 1 if they break a check, paper tolerance or trend",
    )
    bench_show.add_argument("name", help="benchmark name (see `bench list`)")
    bench_show.add_argument("--baseline", metavar="DIR",
                            default="benchmarks/results",
                            help="trajectory directory to read")
    bench_show.add_argument("--scale", choices=["smoke", "full"],
                            default="full", help="which scale's rows to print")
    bench_show.set_defaults(handler=_cmd_bench)
    bench_gate = bench_sub.add_parser(
        "gate",
        help="compare current trajectories against committed baselines; "
             "exit 1 on any headline regression",
    )
    bench_gate.add_argument("--baseline", metavar="DIR",
                            default="benchmarks/results",
                            help="committed baseline trajectory directory")
    bench_gate.add_argument("--current", metavar="DIR", default=None,
                            help="freshly-swept trajectory directory "
                                 "(default: same as --baseline, i.e. "
                                 "self-consistency)")
    bench_gate.add_argument("--scale", choices=["smoke", "full"],
                            default="smoke",
                            help="which scale's runs to compare")
    bench_gate.add_argument("--bench", action="append", default=[],
                            metavar="NAME",
                            help="gate only these benchmarks (repeatable)")
    bench_gate.add_argument("--out", metavar="FILE.json", default=None,
                            help="write the repro-bench-gate-v1 verdict")
    bench_gate.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code. A
    :class:`ConfigError` from any command is a usage error: one
    ``error:`` line and exit 2, like argparse's own."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
