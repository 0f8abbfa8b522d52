"""The parallel sweep runner: grid -> cells -> records -> trajectories.

``SweepRunner`` expands a declarative :class:`~repro.bench.space.Grid`
(whose canonical ``bench`` axis names the registered benchmark each
cell runs) into validated cells with deterministic per-cell seeds, fans
the cells out over a ``multiprocessing`` pool, isolates per-run
failures (a crashed run records an *error* record, it never kills the
sweep), and — only when given a ``results_dir`` — appends
schema-versioned ``repro-bench-v1`` records to the per-benchmark
``BENCH_<name>.json`` trajectories there. It is the one recorder:
``repro bench run --record`` and ``repro sweep --out`` both end in
:meth:`SweepRunner.run`, and nothing else writes a trajectory.

Design invariants:

* **Determinism** — cell order, fingerprints, and derived seeds depend
  only on the grid and base seed, never on scheduling. Parallel and
  serial sweeps produce identical records (up to wall-clock duration
  and timestamps); a test pins this.
* **Resume** — ``resume=True`` skips cells whose ``(fingerprint,
  repeat)`` already has an ``ok`` record at the sweep's scale, so a
  partially-written trajectory continues instead of restarting.
* **Isolation** — worker exceptions are caught and serialized into the
  record's ``error`` field with a traceback.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import time
import traceback
from dataclasses import dataclass, field

from repro.bench.records import (
    RunRecord,
    Trajectory,
    cell_fingerprint,
    derive_seed,
    environment_info,
)
from repro.bench.registry import REGISTRY, BenchRegistry
from repro.bench.space import Grid
from repro.errors import ConfigError

__all__ = ["SweepCell", "SweepResult", "SweepRunner"]


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved run: benchmark, params, seed, identity."""

    bench: str
    params: dict
    seed: int
    repeat: int
    fingerprint: str


@dataclass
class SweepResult:
    """What a sweep did: the records plus bookkeeping."""

    records: list = field(default_factory=list)
    skipped: int = 0
    paths: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for record in self.records if record.status == "ok")

    @property
    def errors(self) -> int:
        return sum(1 for record in self.records if record.status == "error")


# -- worker side ---------------------------------------------------------

_WORKER_REGISTRY: BenchRegistry | None = None


def _pool_init(registry: BenchRegistry | None) -> None:
    """Pool initializer: install the registry in the worker process."""
    global _WORKER_REGISTRY
    if registry is None:
        from repro.bench.registry import discover

        discover()
        registry = REGISTRY
    _WORKER_REGISTRY = registry


def _run_cell(payload: dict) -> dict:
    """Execute one cell; *always* returns a record dict (plus the
    entry's ``artifacts`` documents), never raises.

    Module-level (picklable) so a Pool can map it; failure isolation
    lives here — any exception from the benchmark becomes an ``error``
    record with a traceback.
    """
    registry = _WORKER_REGISTRY if _WORKER_REGISTRY is not None else REGISTRY
    start = time.perf_counter()
    artifacts: dict = {}
    try:
        spec = registry.get(payload["bench"])
        metrics = spec.run(payload["params"], artifacts)
        record = RunRecord(
            status="ok",
            metrics={key: _plain(value) for key, value in metrics.items()},
            duration_s=time.perf_counter() - start,
            **payload,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        raise
    except BaseException:
        record = RunRecord(
            status="error",
            error=traceback.format_exc(limit=20),
            duration_s=time.perf_counter() - start,
            **payload,
        )
    return {**record.to_dict(), "artifacts": artifacts}


def _plain(value):
    """Strip numpy scalars etc. down to JSON-serializable numbers."""
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, (int, float)):
        return value
    return float(value)


# -- driver side ---------------------------------------------------------


class SweepRunner:
    """Expand grids, run cells (optionally in parallel), write records."""

    def __init__(
        self,
        registry: BenchRegistry | None = None,
        results_dir=None,
        jobs: int = 1,
        scale: str = "smoke",
        base_seed: int = 0,
        repeats: int = 1,
        keep_history: bool = False,
    ):
        if scale not in ("smoke", "full"):
            raise ConfigError(f"scale {scale!r} must be 'smoke' or 'full'")
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if repeats < 1:
            raise ConfigError("repeats must be >= 1")
        self.registry = registry if registry is not None else REGISTRY
        #: where :meth:`run` records; None = run and report, write nothing
        self.results_dir = (
            pathlib.Path(results_dir) if results_dir is not None else None
        )
        self.jobs = jobs
        self.scale = scale
        self.base_seed = base_seed
        self.repeats = repeats
        self.keep_history = keep_history

    # -- expansion -----------------------------------------------------

    def cell(self, bench: str, overrides: dict | None = None, repeat: int = 0):
        """One validated :class:`SweepCell`: ``overrides`` coerced against
        the benchmark's typed parameter space (smoke overrides applied
        first at smoke scale). A derived seed is injected into the
        ``seed`` param when the benchmark declares one and the
        overrides did not pin it.
        """
        overrides = overrides or {}
        spec = self.registry.get(bench)
        params = spec.resolve(overrides, scale=self.scale)
        seed = derive_seed(self.base_seed, spec.name, params, repeat)
        if "seed" in spec.params and "seed" not in overrides:
            params["seed"] = spec.params["seed"].coerce(seed % (2**31 - 1))
        return SweepCell(
            bench=spec.name,
            params=params,
            seed=seed,
            repeat=repeat,
            fingerprint=cell_fingerprint(spec.name, params),
        )

    def expand(self, grid: Grid) -> list:
        """Grid -> :meth:`cell` list (deterministic). Every cell dict
        must carry a ``bench`` key naming a registered benchmark; the
        remaining keys are its param overrides."""
        cells = []
        for raw in grid.cells():
            if "bench" not in raw:
                raise ConfigError(
                    f"grid {grid.name!r}: every cell needs a 'bench' axis "
                    f"(got {sorted(raw)})"
                )
            overrides = {key: value for key, value in raw.items() if key != "bench"}
            cells += [
                self.cell(raw["bench"], overrides, repeat)
                for repeat in range(self.repeats)
            ]
        return cells

    # -- execution -----------------------------------------------------

    def run(self, cells, resume: bool = False, progress=None) -> SweepResult:
        """Run cells and return the sweep summary; with a ``results_dir``,
        append the records to its trajectories and write each entry's
        ``artifacts`` documents beside them."""
        cells = list(cells)
        result = SweepResult()
        if resume and self.results_dir is not None:
            done: dict[str, set] = {}
            for bench in {cell.bench for cell in cells}:
                trajectory = Trajectory.load_or_create(self.results_dir, bench)
                done[bench] = trajectory.completed_keys(self.scale)
            remaining = []
            for cell in cells:
                if (cell.fingerprint, cell.repeat) in done.get(cell.bench, set()):
                    result.skipped += 1
                else:
                    remaining.append(cell)
            cells = remaining
        if not cells:
            return result

        env = environment_info()
        raws, artifacts = [], {}
        for raw in self._outcomes([self._payload(cell, env) for cell in cells]):
            self._report(progress, raw)
            artifacts.update(raw.pop("artifacts"))
            raws.append(raw)
        records = [RunRecord.from_dict(raw) for raw in raws]
        result.records.extend(records)
        if self.results_dir is None:
            return result
        by_bench: dict[str, list] = {}
        for record in records:
            by_bench.setdefault(record.bench, []).append(record)
        for bench, bench_records in sorted(by_bench.items()):
            trajectory = Trajectory.load_or_create(self.results_dir, bench)
            for record in bench_records:
                trajectory.append(record, keep_history=self.keep_history)
            result.paths.append(trajectory.save(self.results_dir))
        for name, document in sorted(artifacts.items()):
            path = self.results_dir / name
            path.write_text(json.dumps(document, indent=2) + "\n")
            result.paths.append(path)
        return result

    def _payload(self, cell: SweepCell, env: dict) -> dict:
        """What a worker needs to run one cell: its record's identity."""
        return {
            "bench": cell.bench,
            "params": cell.params,
            "seed": cell.seed,
            "scale": self.scale,
            "repeat": cell.repeat,
            "fingerprint": cell.fingerprint,
            "env": env,
        }

    def _outcomes(self, payloads):
        """Each cell's raw record, in cell order: in-process for one job
        or one cell, else fanned out over a fork pool."""
        if self.jobs == 1 or len(payloads) == 1:
            _pool_init(self.registry)
            yield from map(_run_cell, payloads)
            return
        initargs = (None if self.registry is REGISTRY else self.registry,)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            context = multiprocessing.get_context()
        with context.Pool(
            processes=min(self.jobs, len(payloads)),
            initializer=_pool_init,
            initargs=initargs,
        ) as pool:
            yield from pool.imap(_run_cell, payloads)

    @staticmethod
    def _report(progress, raw: dict) -> None:
        if progress is None:
            return
        status = raw["status"]
        label = " ".join(
            f"{key}={value}" for key, value in sorted(raw["params"].items())
        )
        progress(
            f"  [{status:>5}] {raw['bench']} {label} "
            f"({raw['duration_s']:.2f}s)"
        )

    # -- one-shot convenience ------------------------------------------

    def run_single(self, bench: str, overrides: dict | None = None) -> RunRecord:
        """Resolve + run one benchmark in-process; returns the record
        without recording it."""
        _pool_init(self.registry)
        raw = _run_cell(self._payload(self.cell(bench, overrides), environment_info()))
        del raw["artifacts"]
        return RunRecord.from_dict(raw)
