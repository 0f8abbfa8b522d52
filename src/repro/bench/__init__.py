"""Parallel experiment-sweep harness with machine-readable trajectories.

``repro.bench`` holds the repository's ``benchmarks/bench_*.py``
experiments as a *registry* of typed, sweepable entries — each stated
once, with its paper reference (:class:`Ref`, :class:`Trend`) on the
registration — and gives them three shared services:

* **Sweeps** — :class:`SweepRunner` expands a declarative parameter
  :class:`Grid` (conditional axes included) into cells with
  deterministic derived seeds, fans them out over a process pool with
  per-run failure isolation, and — the one recorder — writes results
  where ``--record`` / ``--out`` says, nowhere otherwise.
* **Trajectories** — every run becomes a schema-versioned
  ``repro-bench-v1`` :class:`RunRecord` appended to
  ``benchmarks/results/BENCH_<name>.json`` with environment and git
  provenance (:class:`Trajectory`, :func:`validate_trajectory`,
  :func:`stuck_params`).
* **The gate** — :func:`evaluate_gate` pairs current runs against
  committed baselines by cell fingerprint and fails on headline-metric
  regressions beyond per-metric :class:`Headline` thresholds.

CLI entry points: ``repro sweep`` and ``repro bench list|run|show|gate``.
"""

from repro.bench.gate import GATE_SCHEMA, evaluate_gate, render_gate
from repro.bench.records import (
    BENCH_SCHEMA,
    RunRecord,
    Trajectory,
    cell_fingerprint,
    derive_seed,
    environment_info,
    stuck_params,
    validate_trajectory,
)
from repro.bench.registry import (
    REGISTRY,
    BenchRegistry,
    BenchSpec,
    Headline,
    Ref,
    Trend,
    discover,
    register,
)
from repro.bench.runner import SweepResult, SweepRunner
from repro.bench.space import Grid, Param, load_grid, parse_grid

__all__ = [
    "BENCH_SCHEMA",
    "BenchRegistry",
    "BenchSpec",
    "GATE_SCHEMA",
    "Grid",
    "Headline",
    "Param",
    "REGISTRY",
    "Ref",
    "RunRecord",
    "SweepResult",
    "SweepRunner",
    "Trajectory",
    "Trend",
    "cell_fingerprint",
    "derive_seed",
    "discover",
    "environment_info",
    "evaluate_gate",
    "load_grid",
    "parse_grid",
    "register",
    "render_gate",
    "stuck_params",
    "validate_trajectory",
]
