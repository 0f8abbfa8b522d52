#!/usr/bin/env python
"""Validate observability exports produced by `repro simulate/train`.

Checks five artifact kinds against their schemas:

* Chrome ``trace_event`` JSON (``--trace``): event shape, metadata
  threads, microsecond timestamps, and — when the run used lookahead —
  that maintenance/prefetch spans genuinely overlap a GPU span on a
  different track (the Figure 7 property CI guards).
* Prometheus text (``--prom``): TYPE lines, cumulative monotone
  histogram buckets, ``_sum``/``_count`` presence.
* JSON metrics snapshot (``--snapshot``): ``repro-metrics-v1`` schema,
  per-entry field requirements, and that ``repro metrics`` can render
  it.
* Merged multi-node trace (``--merged``): ``repro-trace-merged-v1``
  schema from ``repro trace merge`` — at least two process tracks,
  each named, and every cross-node flow arrow fully paired (an ``f``
  finish for every ``s`` start and vice versa).
* Flight-recorder dump (``--flightrec``): ``repro-flightrec-v1``
  postmortem record — trigger/node identity, well-formed events in
  non-decreasing time order.
* BENCH trajectories (``--bench``): ``repro-bench-v1`` sweep records —
  one file, or a results directory (every ``BENCH_*.json`` in it, and
  no registered bench missing). Full schema validation via
  ``repro.bench.validate_trajectory``, the filename matching the bench
  it claims, and (when the registry is importable) that the bench is
  registered, every ok run carries all of its declared headline
  metrics, and no two ok runs differ in params yet agree in every
  metric (``repro.bench.stuck_params``).
* Gate verdict (``--gate``): ``repro-bench-gate-v1`` machine-readable
  verdict from ``repro bench gate`` — check shape, self-consistent
  counts, and ``ok`` agreeing with the regression count.

Exit code 0 = all supplied artifacts valid; 1 = any check failed.

Usage::

    python scripts/check_obs_export.py --trace t.json --prom m.prom \
        --snapshot m.json [--require-overlap] \
        --merged merged.json --flightrec flightrec_promotion_1.json \
        --bench benchmarks/results --gate verdict.json
"""

from __future__ import annotations

import argparse
import json
import sys

TRACE_SCHEMA = "repro-trace-v1"
METRICS_SCHEMA = "repro-metrics-v1"
MERGED_TRACE_SCHEMA = "repro-trace-merged-v1"
FLIGHTREC_SCHEMA = "repro-flightrec-v1"

_errors: list[str] = []


def fail(message: str) -> None:
    _errors.append(message)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------


def check_trace(path: str, require_overlap: bool) -> None:
    with open(path) as fh:
        trace = json.load(fh)
    check(isinstance(trace, dict), "trace: top level must be an object")
    check(
        trace.get("otherData", {}).get("schema") == TRACE_SCHEMA,
        f"trace: otherData.schema must be {TRACE_SCHEMA}",
    )
    events = trace.get("traceEvents")
    check(isinstance(events, list) and events, "trace: traceEvents empty")
    if not isinstance(events, list):
        return
    phases = {"X", "i", "M"}
    for event in events:
        ph = event.get("ph")
        check(ph in phases, f"trace: unknown phase {ph!r}")
        if ph == "X":
            check(
                isinstance(event.get("ts"), (int, float))
                and isinstance(event.get("dur"), (int, float))
                and event["dur"] >= 0,
                f"trace: X event {event.get('name')!r} needs ts and dur >= 0",
            )
        if ph == "i":
            check(
                isinstance(event.get("ts"), (int, float)),
                f"trace: instant {event.get('name')!r} needs ts",
            )
    threads = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event.get("name") == "thread_name"
    }
    check(bool(threads), "trace: no thread_name metadata")

    if require_overlap:
        gpu = [e for e in events if e.get("name") == "gpu.compute"]
        hidden = [
            e
            for e in events
            if e.get("name") in ("maintain.deferred", "prefetch.pull")
        ]
        check(bool(gpu), "trace: --require-overlap but no gpu.compute spans")
        check(bool(hidden), "trace: --require-overlap but no maintainer spans")
        overlapping = any(
            g["tid"] != h["tid"]
            and g["ts"] <= h["ts"] < g["ts"] + g["dur"]
            for g in gpu
            for h in hidden
        )
        check(
            overlapping,
            "trace: no maintainer-track span overlaps a gpu.compute span "
            "(the Figure 7 property)",
        )


# ----------------------------------------------------------------------
# Prometheus text
# ----------------------------------------------------------------------


def check_prometheus(path: str) -> None:
    with open(path) as fh:
        text = fh.read()
    lines = [line for line in text.splitlines() if line.strip()]
    check(bool(lines), "prom: file is empty")
    typed: dict[str, str] = {}
    for line in lines:
        if line.startswith("# TYPE "):
            __, __, name, kind = line.split(" ", 3)
            typed[name] = kind
            continue
        check(
            not line.startswith("#"), f"prom: unexpected comment {line!r}"
        )
        metric = line.split("{", 1)[0].split(" ", 1)[0]
        base = metric
        for suffix in ("_bucket", "_sum", "_count", "_quantile"):
            if metric.endswith(suffix):
                base = metric[: -len(suffix)]
                break
        check(
            base in typed,
            f"prom: series {metric!r} has no preceding # TYPE line",
        )
    for name, kind in typed.items():
        if kind != "histogram":
            continue
        buckets = [
            line
            for line in lines
            if line.startswith(f"{name}_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        check(
            counts == sorted(counts),
            f"prom: histogram {name!r} buckets are not cumulative-monotone",
        )
        check(
            any(line.startswith(f"{name}_sum") for line in lines)
            and any(line.startswith(f"{name}_count") for line in lines),
            f"prom: histogram {name!r} missing _sum/_count",
        )


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------


def check_snapshot(path: str) -> None:
    with open(path) as fh:
        snapshot = json.load(fh)
    check(
        snapshot.get("schema") == METRICS_SCHEMA,
        f"snapshot: schema must be {METRICS_SCHEMA}",
    )
    metrics = snapshot.get("metrics")
    check(isinstance(metrics, list) and metrics, "snapshot: metrics empty")
    if not isinstance(metrics, list):
        return
    for entry in metrics:
        name = entry.get("name", "?")
        check(
            entry.get("type") in ("counter", "gauge", "histogram"),
            f"snapshot: {name}: bad type {entry.get('type')!r}",
        )
        check(
            isinstance(entry.get("labels"), dict),
            f"snapshot: {name}: labels must be an object",
        )
        if entry.get("type") == "histogram":
            for field in ("count", "sum", "p50", "p95", "p99", "max", "buckets"):
                check(field in entry, f"snapshot: {name}: missing {field!r}")
        else:
            check("value" in entry, f"snapshot: {name}: missing value")
    # The renderer must accept what the exporter wrote.
    try:
        from repro.obs import render_snapshot

        rendered = render_snapshot(snapshot)
        check(bool(rendered.strip()), "snapshot: renderer produced nothing")
    except ImportError:
        fail("snapshot: repro.obs not importable (set PYTHONPATH=src)")
    except ValueError as exc:
        fail(f"snapshot: renderer rejected the file: {exc}")


# ----------------------------------------------------------------------
# Merged multi-node trace
# ----------------------------------------------------------------------


def check_merged(path: str) -> None:
    with open(path) as fh:
        trace = json.load(fh)
    check(isinstance(trace, dict), "merged: top level must be an object")
    other = trace.get("otherData", {})
    check(
        other.get("schema") == MERGED_TRACE_SCHEMA,
        f"merged: otherData.schema must be {MERGED_TRACE_SCHEMA}",
    )
    check(
        isinstance(other.get("sources"), list) and len(other["sources"]) >= 1,
        "merged: otherData.sources missing",
    )
    events = trace.get("traceEvents")
    check(isinstance(events, list) and events, "merged: traceEvents empty")
    if not isinstance(events, list):
        return
    pids = {e.get("pid") for e in events}
    check(len(pids) >= 2, "merged: fewer than two process tracks (pids)")
    named = {
        e.get("pid")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    check(
        pids <= named,
        f"merged: pids without a process_name: {sorted(pids - named)}",
    )
    starts = {
        e.get("id") for e in events if e.get("ph") == "s"
    }
    finishes = {
        e.get("id") for e in events if e.get("ph") == "f"
    }
    check(
        starts == finishes,
        f"merged: unpaired flow events (starts only: "
        f"{sorted(starts - finishes)}, finishes only: "
        f"{sorted(finishes - starts)})",
    )
    declared = other.get("flows")
    check(
        declared == len(starts),
        f"merged: otherData.flows={declared} but {len(starts)} flow ids",
    )
    for event in events:
        if event.get("ph") in ("s", "f"):
            check(
                isinstance(event.get("ts"), (int, float))
                and event.get("id"),
                "merged: flow event needs ts and id",
            )


# ----------------------------------------------------------------------
# Flight-recorder dump
# ----------------------------------------------------------------------


def check_flightrec(path: str) -> None:
    with open(path) as fh:
        dump = json.load(fh)
    check(isinstance(dump, dict), "flightrec: top level must be an object")
    check(
        dump.get("schema") == FLIGHTREC_SCHEMA,
        f"flightrec: schema must be {FLIGHTREC_SCHEMA}",
    )
    for field in ("node", "trigger"):
        check(
            isinstance(dump.get(field), str) and dump[field],
            f"flightrec: missing {field!r}",
        )
    check(isinstance(dump.get("t"), (int, float)), "flightrec: missing t")
    for field in ("recorded", "dropped"):
        check(
            isinstance(dump.get(field), int) and dump[field] >= 0,
            f"flightrec: {field!r} must be a non-negative integer",
        )
    events = dump.get("events")
    check(isinstance(events, list) and events, "flightrec: events empty")
    if not isinstance(events, list):
        return
    last_t = float("-inf")
    for event in events:
        check(
            isinstance(event.get("t"), (int, float))
            and isinstance(event.get("kind"), str)
            and isinstance(event.get("name"), str),
            f"flightrec: malformed event {event!r}",
        )
        t = event.get("t")
        if isinstance(t, (int, float)):
            check(
                t >= last_t,
                f"flightrec: events out of time order at t={t}",
            )
            last_t = t


# ----------------------------------------------------------------------
# BENCH trajectory
# ----------------------------------------------------------------------

BENCH_SCHEMA = "repro-bench-v1"
GATE_SCHEMA = "repro-bench-gate-v1"


def _bench_registry():
    """The populated bench registry, or None when there is no checkout
    next to the package (schema checks only)."""
    try:
        from repro.bench import REGISTRY, discover

        discover()
    except Exception:
        return None
    return REGISTRY


def check_bench(path: str) -> None:
    import pathlib

    if pathlib.Path(path).is_dir():
        files = sorted(pathlib.Path(path).glob("BENCH_*.json"))
        check(bool(files), f"bench: no BENCH_*.json under {path}")
        for file in files:
            check_bench(str(file))
        registry = _bench_registry()
        if registry is not None:
            absent = set(registry.names()) - {
                file.stem[len("BENCH_"):] for file in files
            }
            check(not absent, f"bench: {path} has no trajectory for {sorted(absent)}")
        return
    errors_before = len(_errors)
    with open(path) as fh:
        payload = json.load(fh)
    try:
        from repro.bench import validate_trajectory
    except ImportError:
        fail("bench: repro.bench not importable (set PYTHONPATH=src)")
        return
    for error in validate_trajectory(payload):
        fail(f"bench: {error}")
    bench = payload.get("bench")
    if isinstance(bench, str) and bench:
        expected = f"BENCH_{bench}.json"
        actual = pathlib.Path(path).name
        check(
            actual == expected,
            f"bench: file {actual!r} holds bench {bench!r} "
            f"(expected name {expected!r})",
        )
    registry = _bench_registry()
    if registry is None:
        return
    if not (isinstance(bench, str) and bench in registry):
        fail(f"bench: {bench!r} is not a registered benchmark")
        return
    headline = set(registry.get(bench).headline)
    for index, run in enumerate(payload.get("runs", [])):
        if not isinstance(run, dict) or run.get("status") != "ok":
            continue
        missing = headline - set(run.get("metrics", {}))
        check(
            not missing,
            f"bench: runs[{index}] missing headline metrics {sorted(missing)}",
        )
    if len(_errors) == errors_before:  # a valid trajectory: lint its rows
        from repro.bench import Trajectory, stuck_params

        for error in stuck_params(
            Trajectory.load(path), registry.get(bench).saturated
        ):
            fail(f"bench: {error}")


def check_gate(path: str) -> None:
    with open(path) as fh:
        verdict = json.load(fh)
    check(isinstance(verdict, dict), "gate: top level must be an object")
    if not isinstance(verdict, dict):
        return
    check(
        verdict.get("schema") == GATE_SCHEMA,
        f"gate: schema must be {GATE_SCHEMA}",
    )
    check(verdict.get("scale") in ("smoke", "full"), "gate: bad scale")
    check(isinstance(verdict.get("ok"), bool), "gate: 'ok' must be a boolean")
    checks = verdict.get("checks")
    counts = verdict.get("counts")
    check(isinstance(checks, list), "gate: 'checks' must be a list")
    check(isinstance(counts, dict), "gate: 'counts' must be an object")
    if not isinstance(checks, list) or not isinstance(counts, dict):
        return
    statuses = ("pass", "improved", "within-noise", "regression")
    for index, entry in enumerate(checks):
        where = f"gate: checks[{index}]"
        if not isinstance(entry, dict):
            fail(f"{where}: must be an object")
            continue
        check(entry.get("status") in statuses, f"{where}: bad status")
        check(
            isinstance(entry.get("bench"), str) and entry["bench"],
            f"{where}: missing bench",
        )
        check("detail" in entry, f"{where}: missing detail")
    regressions = sum(
        1
        for entry in checks
        if isinstance(entry, dict) and entry.get("status") == "regression"
    )
    check(
        counts.get("total") == len(checks),
        f"gate: counts.total={counts.get('total')} but {len(checks)} checks",
    )
    check(
        counts.get("regressions") == regressions,
        f"gate: counts.regressions={counts.get('regressions')} "
        f"but {regressions} regression checks",
    )
    check(
        verdict.get("ok") == (regressions == 0),
        "gate: 'ok' disagrees with the regression count",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="Chrome trace_event JSON file")
    parser.add_argument("--prom", help="Prometheus text export")
    parser.add_argument("--snapshot", help="JSON metrics snapshot")
    parser.add_argument(
        "--require-overlap",
        action="store_true",
        help="fail unless maintainer spans overlap gpu.compute in the trace",
    )
    parser.add_argument(
        "--merged", help="merged multi-node trace from `repro trace merge`"
    )
    parser.add_argument(
        "--flightrec", help="flight-recorder postmortem dump JSON"
    )
    parser.add_argument(
        "--bench",
        action="append",
        help="repro-bench-v1 BENCH_<name>.json trajectory, or a results "
             "directory of them (repeatable)",
    )
    parser.add_argument(
        "--gate", help="repro-bench-gate-v1 verdict from `repro bench gate`"
    )
    args = parser.parse_args(argv)
    artifacts = (
        args.trace, args.prom, args.snapshot, args.merged, args.flightrec,
        *(args.bench or []), args.gate,
    )
    if not any(artifacts):
        parser.error(
            "give at least one of --trace/--prom/--snapshot/--merged/"
            "--flightrec/--bench/--gate"
        )
    if args.trace:
        check_trace(args.trace, args.require_overlap)
    if args.prom:
        check_prometheus(args.prom)
    if args.snapshot:
        check_snapshot(args.snapshot)
    if args.merged:
        check_merged(args.merged)
    if args.flightrec:
        check_flightrec(args.flightrec)
    for bench_path in args.bench or []:
        check_bench(bench_path)
    if args.gate:
        check_gate(args.gate)
    if _errors:
        for message in _errors:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    checked = sum(bool(x) for x in artifacts)
    print(f"ok: {checked} artifact(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
