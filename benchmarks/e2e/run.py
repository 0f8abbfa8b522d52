"""e2e: the repo's wall-clock end-to-end benchmark with per-layer attribution.

Two ways to run it (see README.md next to this file):

* **One measured run** — what ``BENCHMARK.json`` declares and the perf
  driver calls::

      python3 benchmarks/e2e/run.py --workload sync_hot --seed 1 --seconds 16 --trace 0

  sets the workload up, measures a closed loop for ``--seconds`` (or a
  fixed ``--ops`` count), checks the outputs, prints every metric by
  name with its unit and ends with one JSON line. ``--trace 0`` reports
  the end-to-end metrics, ``--trace 1`` the per-layer ones. Times are
  printed raw (``ms``, ``samples/s``) and relative to a reference kernel
  timed beside the ops (``ref``, see ``reference.py``); the JSON line
  carries the relative ones, which is what ``BENCHMARK.json`` gates on.

* **The full report** — ``python benchmarks/e2e/run.py [--seed N]
  [--workload W] [--smoke]`` runs every workload untraced (three times;
  once under ``--smoke``) and traced at fixed operation counts, each in a
  fresh subprocess, one after another, cross-checks them and writes one
  result JSON.

``--selftest`` proves each workload exercises what it claims;
``--compare A.json B.json`` compares two result files under the bounds
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# All load comes from one process and one thread; BLAS must not fan out.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

from probes import Layers, Probe, layer_metrics, to_tracer
from reference import Reference
from workloads import WORKLOADS

SCHEMA = "e2e-result-v1"
SMOKE_DIVISOR = 20
REPEATS = 3
"""Untraced runs per workload in the full report (1 under ``--smoke``): their
median is the value, their spread is what ``--compare`` calls unresolved."""
TRACE_OPS = 200
"""Ops whose raw spans are kept for the Chrome trace (accumulators cover all)."""
OUT_DIR = HERE / "out"

# Gated by --compare beside the contract's metrics. BENCHMARK.json cannot hold
# them: it wants every metric on every workload, never 0, with a relative bound.
WORKLOAD_BOUNDS = [
    {"name": "lookup_rows_per_ref", "better": "higher", "bound": 0.10},  # serve_mixed
]
ABSOLUTE_BOUNDS = {"failed_ops_ratio": 0.0, "train_loss": 1e-6}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one measured run (the BENCHMARK.json command)
# ----------------------------------------------------------------------


def block_rows(workload, reference) -> list[dict]:
    """One row per whole block of the window: raw figures and reference time.

    A block is one checkpoint period (``BLOCK`` timed ops, ``train_block``
    units of training work), so every block holds the same mix of cheap
    steps and checkpoint steps; a trailing partial block is dropped. With
    less than one block, the whole run is the block.
    """
    ops = np.asarray(workload.op_lat)
    train = np.asarray(workload.train_lat)
    size, train_size = workload.BLOCK, workload.train_block
    if len(ops) < size:
        size, train_size = len(ops), len(train)
    rows = []
    for lo in range(0, len(ops) - size + 1, size):
        op = ops[lo : lo + size]
        first = lo // size * train_size
        work = train[first : first + train_size]
        row = {
            "ref_s": reference.ref_s(lo, lo + size),
            "busy_s": float(op.sum() + (work.sum() if workload.SERVES else 0.0)),
            "samples_per_s": float(len(work) * workload.SAMPLES_PER_TRAIN / work.sum()),
            "op_ms_p50": float(np.median(op) * 1e3),
            "op_ms_tail": float(np.percentile(op, workload.TAIL_PCT) * 1e3),
        }
        if workload.SERVES:
            row["lookup_rows_per_s"] = float(
                len(op) * workload.KEYS_PER_LOOKUP / op.sum()
            )
        rows.append(row)
    return rows


def end_to_end_metrics(workload, rows, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """``(metrics, notes)`` of a window: name -> (value, unit).

    Every figure is taken inside each block and the median block is
    reported: a burst on the host lands in one or two blocks, where the
    whole window's p99 would be made of it. The ``ref`` figures divide
    each block's times by the reference-kernel time measured during that
    block (see ``reference.py``) before the median is taken.
    """

    def median(per_row) -> float:
        return statistics.median(per_row(row) for row in rows)

    serving = workload.SERVES
    attempted = len(workload.op_lat) + (len(workload.train_lat) if serving else 0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_ref": (
            median(lambda r: r["samples_per_s"] * r["ref_s"]), "samples/ref"
        ),
        "op_refs_p50": (median(lambda r: r["op_ms_p50"] / r["ref_s"] / 1e3), "ref"),
        "op_refs_tail": (median(lambda r: r["op_ms_tail"] / r["ref_s"] / 1e3), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "samples_per_s": (median(lambda r: r["samples_per_s"]), "samples/s"),
        "op_ms_p50": (median(lambda r: r["op_ms_p50"]), "ms"),
        "op_ms_tail": (median(lambda r: r["op_ms_tail"]), "ms"),
        "ref_ms": (median(lambda r: r["ref_s"]) * 1e3, "ms"),
        "failed_ops_ratio": (workload.failed / attempted, "ratio"),
        "train_loss": (float(np.mean(workload.losses[-50:])), "loss"),
    }
    if serving:
        metrics["lookup_rows_per_ref"] = (
            median(lambda r: r["lookup_rows_per_s"] * r["ref_s"]), "rows/ref"
        )
        metrics["lookup_rows_per_s"] = (
            median(lambda r: r["lookup_rows_per_s"]), "rows/s"
        )
    rates = [row["samples_per_s"] for row in rows]
    tail = workload.TAIL_PCT
    notes = {
        "op": workload.OP,
        "tail": f"p{tail}" if tail < 100 else f"slowest op of each {workload.BLOCK}",
        "n_ops": len(workload.op_lat),
        "n_train": len(workload.train_lat),
        "n_blocks": len(rows),
        "block_rate_min": min(rates),
        "block_rate_max": max(rates),
        "attempted": attempted,
        "failed": workload.failed,
        "busy_s": sum(row["busy_s"] for row in rows),
        "busy_refs": sum(row["busy_s"] / row["ref_s"] for row in rows),
    }
    return metrics, notes


def run_one(args) -> int:
    """Set up, measure, check and report one workload in this process."""
    cls = WORKLOADS[args.workload]
    clock = time.perf_counter
    setup_times = []
    workload = None
    for __ in range(args.setups):
        workload = None
        gc.collect()
        start = clock()
        workload = cls(args.seed, args.cache_fraction)
        setup_times.append(clock() - start)

    probe = layers = before = None
    if args.trace:
        probe = Probe()
        layers = Layers(probe, workload.system)
        workload.probe = probe
        before = layers.counters()
    reference = Reference()
    max_ops = args.ops if args.ops else float("inf")
    untimed_s = 0.0
    gc.collect()
    start = clock()
    deadline = start + args.seconds if args.seconds else float("inf")
    n = 0
    while n < max_ops and clock() < deadline:
        if n % workload.BLOCK == 0 or reference.due():
            t0 = clock()
            reference.sample(n)
            untimed_s += clock() - t0
        if probe is not None:
            probe.op_id = n
            probe.keep_spans = bool(args.trace_out) and n < TRACE_OPS
        workload.run_op(n)
        n += 1
    wall_s = clock() - start - untimed_s - workload.untimed_s
    # Before check(): its reference server must not count as the program's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check()
    rows = block_rows(workload, reference)
    metrics, notes = end_to_end_metrics(workload, rows, setup_times, peak_rss_mb)
    notes["wall_s"] = wall_s
    if args.trace:
        metrics = layer_metrics(probe, before, layers.counters(), wall_s, n)
        if args.trace_out:
            from repro.obs.exporters import write_chrome_trace

            write_chrome_trace(to_tracer(probe), args.trace_out, f"e2e:{cls.NAME}")

    print(f"# {cls.NAME} seed={args.seed} trace={args.trace}: {cls.WHY}")
    print(f"# op = {notes['op']}; {notes['n_ops']} ops, {notes['n_train']} train units")
    counts = {}
    for kind in ("refs", "ms"):
        counts[f"op_{kind}_p50"] = f"  (n={notes['n_ops']})"
        counts[f"op_{kind}_tail"] = f"  (n={notes['n_ops']}, {notes['tail']})"
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}{counts.get(name, '')}")
    if not args.trace:
        print(
            f"# samples_per_s over {notes['n_blocks']} blocks: "
            f"min {notes['block_rate_min']:.1f} max {notes['block_rate_max']:.1f}"
        )
    for problem in problems:
        print(f"INCORRECT: {problem}")

    if args.detail_out:
        detail = {
            "workload": cls.NAME, "why": cls.WHY, "seed": args.seed,
            "trace": args.trace, "setup_times_s": setup_times, "notes": notes,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "losses": workload.losses, "state_crc": workload.state_crc(),
            "problems": problems,
        }
        with open(args.detail_out, "w") as fh:
            json.dump(detail, fh)

    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": not problems,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------


def spawn(workload: str, seed: int, trace: int, ops: int, setups: int,
          tag: str, cache_fraction: float | None = None) -> dict:
    """One fresh subprocess per workload x mode; returns its detail JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"detail_{workload}_{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--ops", str(ops),
        "--setups", str(setups), "--detail-out", str(detail_path),
    ]
    if trace:
        command += ["--trace-out", str(OUT_DIR / f"trace_{workload}.json")]
    if cache_fraction is not None:
        command += ["--cache-fraction", str(cache_fraction)]
    detail_path.unlink(missing_ok=True)  # never read a previous run's detail
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0 or not detail_path.exists():
        raise RuntimeError(
            f"{workload} ({tag}) produced no result:\n{done.stdout}\n{done.stderr}"
        )
    with open(detail_path) as fh:
        detail = json.load(fh)
    return detail


def environment(seed: int, ops: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "git_sha": sha, "seed": seed, "ops": ops,
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def scaled_ops(name: str, smoke: bool) -> int:
    ops = WORKLOADS[name].OPS
    return max(1, ops // SMOKE_DIVISOR) if smoke else ops


def run_all(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    setups = 1 if args.smoke else 3
    repeats = 1 if args.smoke else REPEATS
    ops = {name: scaled_ops(name, args.smoke) for name in names}
    result = {
        "schema": SCHEMA, "smoke": args.smoke, "repeats": repeats,
        "env": environment(args.seed, ops), "workloads": {}, "checks": [],
    }
    details = {}
    for name in names:
        # The traced run sits between the untraced ones, so the overhead
        # ratio compares neighbours in time, not two ends of a host drift.
        untraced = [spawn(name, args.seed, 0, ops[name], setups, "untraced0")]
        traced = spawn(name, args.seed, 1, ops[name], setups, "traced")
        untraced += [
            spawn(name, args.seed, 0, ops[name], setups, f"untraced{r}")
            for r in range(1, repeats)
        ]
        details[name] = untraced[0]
        first = untraced[0]
        per_layer = traced["metrics"]
        per_layer["trace.overhead_ratio"] = {
            "value": traced["notes"]["busy_refs"]
            / statistics.median(u["notes"]["busy_refs"] for u in untraced) - 1.0,
            "unit": "ratio",
        }
        end_to_end = {}
        for metric, entry in first["metrics"].items():
            values = [u["metrics"][metric]["value"] for u in untraced]
            end_to_end[metric] = {
                "value": statistics.median(values), "unit": entry["unit"],
                "runs": values,
            }
        result["workloads"][name] = {
            "why": first["why"], "ops": ops[name], "notes": first["notes"],
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
        checks = result["checks"]
        for run in (*untraced, traced):
            for problem in run["problems"]:
                checks.append({"check": f"{name}: {problem}", "ok": False})
        same = all(
            run["losses"] == first["losses"] and run["state_crc"] == first["state_crc"]
            for run in (*untraced[1:], traced)
        )
        checks.append({
            "check": f"{name}: losses and state CRC identical across untraced "
                     "and traced runs", "ok": same,
        })
        checks.append({
            "check": f"{name}: failed_ops_ratio == 0",
            "ok": all(u["notes"]["failed"] == 0 for u in (*untraced, traced)),
        })
    if "sync_hot" in details and "sync_miss" in details:
        miss = details["sync_miss"]["losses"]
        result["checks"].append({
            "check": "sync_miss losses equal sync_hot's first losses bit for bit "
                     "(cache size must not change the math)",
            "ok": miss == details["sync_hot"]["losses"][: len(miss)],
        })
    result["claim"] = None

    print_report(result)
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nresult written to {out}")
    failed = [c for c in result["checks"] if not c["ok"]]
    return 1 if failed else 0


def print_report(result: dict) -> None:
    env = result["env"]
    print(
        f"e2e  seed={env['seed']} git={env['git_sha'][:12]} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} smoke={result['smoke']}"
    )
    for name, entry in result["workloads"].items():
        notes = entry["notes"]
        print(f"\n== {name}: {entry['why']}")
        print(f"   op = {notes['op']}; {notes['n_ops']} ops, "
              f"{notes['n_train']} train units, tail = {notes['tail']}")
        for metric, m in entry["end_to_end"].items():
            print(f"   {metric:<26} {m['value']:>16.6f} {m['unit']}")
        print(f"   samples_per_s block spread: min {notes['block_rate_min']:.1f} "
              f"max {notes['block_rate_max']:.1f} over {notes['n_blocks']} blocks")
        print("   -- per layer (traced run)")
        for metric, m in entry["per_layer"].items():
            print(f"   {metric:<26} {m['value']:>16.6f} {m['unit']}")
    print("\n== checks")
    for check in result["checks"]:
        print(f"   [{'ok' if check['ok'] else 'FAIL'}] {check['check']}")
    print('   "claim": null')


# ----------------------------------------------------------------------
# --selftest: each workload does what it says
# ----------------------------------------------------------------------


def selftest_guards() -> list[tuple[str, bool, str]]:
    """Run every workload traced at smoke scale; ``(guard, ok, detail)``."""
    miss = "sync_miss"
    jobs = {name: (name, 1, 1, scaled_ops(name, True), 1, "selftest") for name in WORKLOADS}
    jobs["halved"] = (miss, 1, 1, scaled_ops(miss, True), 1, "selftest_halved",
                      WORKLOADS[miss].CACHE_FRACTION / 2)
    jobs["untraced"] = (miss, 1, 0, 2, 1, "selftest_untraced")
    # Guards read counts, never times, so two subprocesses may share the box.
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {key: pool.submit(spawn, *job) for key, job in jobs.items()}
    runs = {key: future.result() for key, future in futures.items()}
    halved, untraced = runs.pop("halved"), runs.pop("untraced")

    def m(name: str, metric: str, run=None) -> float:
        return (run or runs[name])["metrics"][metric]["value"]

    guards = []

    def guard(label: str, ok: bool, detail: str) -> None:
        guards.append((label, bool(ok), detail))

    for name, run in runs.items():
        guard(f"{name}: outputs correct", not run["problems"], str(run["problems"]))
    hot = "sync_hot"
    guard("sync_hot: cache.misses == 0", m(hot, "cache.misses") == 0,
          str(m(hot, "cache.misses")))
    guard("sync_hot: store.read_calls == 0", m(hot, "store.read_calls") == 0,
          str(m(hot, "store.read_calls")))
    guard("sync_hot: cache.allhit_batch_ratio == 1",
          m(hot, "cache.allhit_batch_ratio") == 1.0,
          str(m(hot, "cache.allhit_batch_ratio")))
    full, half = m("sync_miss", "cache.hit_ratio"), m("", "cache.hit_ratio", halved)
    guard("sync_miss: misses, and halving the cache lowers cache.hit_ratio",
          m("sync_miss", "cache.misses") > 0 and half < full < 1,
          f"{full:.4f} -> {half:.4f}")
    for name in WORKLOADS:
        lossy = name == "async_lossy"
        for metric in ("rpc.retries", "link.faults_injected", "aggregator.folds"):
            value = m(name, metric)
            guard(f"{name}: {metric} {'> 0' if lossy else '== 0'}",
                  value > 0 if lossy else value == 0, str(value))
    hit = m("serve_mixed", "hps.hit_ratio")
    guard("serve_mixed: 0 < hps.hit_ratio < 1", 0 < hit < 1, f"{hit:.4f}")
    guard("serve_mixed: hps.invalidated_rows > 0",
          m("serve_mixed", "hps.invalidated_rows") > 0,
          str(m("serve_mixed", "hps.invalidated_rows")))
    guard("serve_mixed: hps.remote_rows > 0 and store.read_calls > 0",
          m("serve_mixed", "hps.remote_rows") > 0
          and m("serve_mixed", "store.read_calls") > 0,
          str(m("serve_mixed", "hps.remote_rows")))

    contract = load_contract()
    for kind, run in (("per_layer", halved), ("end_to_end", untraced)):
        missing = [c["name"] for c in contract[kind] if c["name"] not in run["metrics"]]
        guard(f"BENCHMARK.json: every {kind} metric is reported", not missing,
              str(missing))
    declared = [w["name"] for w in contract["workloads"]]
    guard("BENCHMARK.json: declares exactly the workloads that exist",
          declared == list(WORKLOADS), str(declared))
    return guards


def selftest() -> int:
    start = time.perf_counter()
    guards = selftest_guards()
    for label, ok, detail in guards:
        print(f"[{'ok' if ok else 'FAIL'}] {label}  ({detail})")
    print(f"selftest took {time.perf_counter() - start:.1f} s")
    return 0 if all(ok for __, ok, __ in guards) else 1


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------


def spread_share(values: list[float]) -> float:
    """Interquartile range of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` of B against base A for one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(spread_share(a.get("runs", [])), spread_share(b.get("runs", [])))
    bound = metric["bound"]
    if spread > bound:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    if worse_by < -max(bound, spread):
        return "improved", worse_by, spread
    return "within-bound", worse_by, spread


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    contract = load_contract()
    print(f"base A = {path_a} (seed {a['env']['seed']}, {a['env']['git_sha'][:12]})")
    print(f"     B = {path_b} (seed {b['env']['seed']}, {b['env']['git_sha'][:12]})")
    print(f"{'workload':<12} {'metric':<18} {'A':>14} {'B':>14} {'B/A':>8} "
          f"{'bound':>7} {'spread':>7}  verdict")
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        e2e_a = a["workloads"][name]["end_to_end"]
        e2e_b = b["workloads"][name]["end_to_end"]
        gated = contract["end_to_end"] + [
            m for m in WORKLOAD_BOUNDS if m["name"] in e2e_a
        ]
        for metric in gated:
            ma, mb = e2e_a[metric["name"]], e2e_b[metric["name"]]
            word, __, spread = verdict(metric, ma, mb)
            regressed |= word == "regressed"
            print(f"{name:<12} {metric['name']:<18} {ma['value']:>14.4f} "
                  f"{mb['value']:>14.4f} {mb['value'] / ma['value']:>8.4f} "
                  f"{metric['bound']:>7.2f} {spread:>7.3f}  {word}")
        names = {m["name"] for m in gated} | set(ABSOLUTE_BOUNDS)
        for metric in (m for m in e2e_a if m not in names and m in e2e_b):
            va, vb = e2e_a[metric]["value"], e2e_b[metric]["value"]
            print(f"{name:<12} {metric:<18} {va:>14.4f} {vb:>14.4f} {vb / va:>8.4f} "
                  f"{'':>7} {'':>7}  raw, not gated")
        # Same inputs and op counts: losses and every count must repeat.
        same_inputs = (
            a["env"]["seed"] == b["env"]["seed"] and a["env"]["ops"] == b["env"]["ops"]
        )
        for metric, bound in ABSOLUTE_BOUNDS.items():
            if metric == "train_loss" and not same_inputs:
                continue
            va, vb = e2e_a[metric]["value"], e2e_b[metric]["value"]
            word = "within-bound" if abs(vb - va) <= bound else "regressed"
            regressed |= word == "regressed"
            print(f"{name:<12} {metric:<18} {va:>14.6f} {vb:>14.6f} "
                  f"{'':>8} {bound:>7.0e} {'abs':>7}  {word}")
        if same_inputs:
            layers_a = a["workloads"][name]["per_layer"]
            layers_b = b["workloads"][name]["per_layer"]
            counts = [k for k, m in layers_a.items() if m["unit"] in ("count", "bytes")]
            moved = [k for k in counts if layers_a[k]["value"] != layers_b[k]["value"]]
            print(f"{name:<12} {len(counts)} per-layer counts: "
                  + (f"DIFFER: {moved}" if moved else "all repeat exactly"))
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run ONE measured window: 0 end-to-end, 1 per-layer")
    parser.add_argument("--seconds", type=float, help="measure for this long")
    parser.add_argument("--ops", type=int, help="measure this many operations")
    parser.add_argument("--setups", type=int, default=3,
                        help="set up this many times; setup_s is the median")
    parser.add_argument("--cache-fraction", type=float,
                        help="override the workload's DRAM cache size (selftest)")
    parser.add_argument("--detail-out", help="also write the run's full detail JSON")
    parser.add_argument("--trace-out", help="write a Chrome trace of the first ops")
    parser.add_argument("--smoke", action="store_true",
                        help=f"full report at 1/{SMOKE_DIVISOR} of the op counts")
    parser.add_argument("--out", help="where the full report's JSON goes")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.trace is None:
        return run_all(args)
    if not args.workload or not (args.seconds or args.ops):
        parser.error("--trace needs --workload and --seconds or --ops")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
