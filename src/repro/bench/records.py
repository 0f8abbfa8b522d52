"""``repro-bench-v1`` run records and on-disk BENCH trajectories.

Every sweep cell produces one :class:`RunRecord` — parameters, derived
seed, scale, status (``ok`` / ``error``), the metrics dict, wall-clock
duration, and environment provenance (python / numpy / platform / git
commit). Records accumulate in per-benchmark *trajectory* files
``benchmarks/results/BENCH_<name>.json``::

    {"schema": "repro-bench-v1", "bench": "prefetch", "runs": [...]}

The trajectory keeps at most one record per ``(cell, repeat, scale)``
(newest wins) unless history is explicitly kept, so committed baselines
stay small and the regression gate can pair baseline and current runs
by cell fingerprint.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import pathlib
import platform
import subprocess
from dataclasses import asdict, dataclass, field

from repro.errors import ConfigError

__all__ = [
    "BENCH_SCHEMA",
    "RunRecord",
    "Trajectory",
    "cell_fingerprint",
    "derive_seed",
    "environment_info",
    "stuck_params",
    "validate_trajectory",
]

BENCH_SCHEMA = "repro-bench-v1"

_STATUSES = ("ok", "error")
_SCALES = ("smoke", "full")


def cell_fingerprint(bench: str, params: dict) -> str:
    """Stable 12-hex id of one sweep cell (bench + canonical params)."""
    blob = json.dumps([bench, sorted(params.items())], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def derive_seed(base_seed: int, bench: str, params: dict, repeat: int = 0) -> int:
    """Deterministic per-cell seed: stable across processes and runs."""
    blob = json.dumps(
        [int(base_seed), bench, sorted(params.items()), int(repeat)],
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def environment_info(extra: dict | None = None) -> dict:
    """Provenance stamped onto every record."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "git": git,
    }
    if extra:
        info.update(extra)
    return info


@dataclass
class RunRecord:
    """One benchmark execution: cell identity, outcome, provenance."""

    bench: str
    params: dict
    seed: int
    scale: str = "smoke"
    repeat: int = 0
    status: str = "ok"
    metrics: dict = field(default_factory=dict)
    error: str | None = None
    duration_s: float = 0.0
    env: dict = field(default_factory=dict)
    created: str = ""
    fingerprint: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ConfigError(f"record status {self.status!r} not in {_STATUSES}")
        if self.scale not in _SCALES:
            raise ConfigError(f"record scale {self.scale!r} not in {_SCALES}")
        if not self.fingerprint:
            self.fingerprint = cell_fingerprint(self.bench, self.params)
        if not self.created:
            self.created = (
                datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds")
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"record has unknown fields {sorted(unknown)}")
        missing = {"bench", "params"} - set(payload)
        if missing:
            raise ConfigError(f"record missing fields {sorted(missing)}")
        return cls(**payload)


class Trajectory:
    """All recorded runs of one benchmark, bound to a JSON file."""

    def __init__(self, bench: str, runs: list | None = None):
        self.bench = bench
        self.runs: list[RunRecord] = list(runs or [])

    # -- construction --------------------------------------------------

    @staticmethod
    def path_for(results_dir, bench: str) -> pathlib.Path:
        return pathlib.Path(results_dir) / f"BENCH_{bench}.json"

    @classmethod
    def load(cls, path) -> "Trajectory":
        path = pathlib.Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        errors = validate_trajectory(payload)
        if errors:
            raise ConfigError(f"{path}: " + "; ".join(errors))
        runs = [RunRecord.from_dict(run) for run in payload["runs"]]
        return cls(payload["bench"], runs)

    @classmethod
    def load_or_create(cls, results_dir, bench: str) -> "Trajectory":
        path = cls.path_for(results_dir, bench)
        if path.is_file():
            return cls.load(path)
        return cls(bench)

    # -- mutation ------------------------------------------------------

    def append(self, record: RunRecord, keep_history: bool = False) -> None:
        """Add a record; by default the newest run of a cell replaces
        the previous run of the same ``(fingerprint, repeat, scale)``."""
        if record.bench != self.bench:
            raise ConfigError(
                f"record bench {record.bench!r} != trajectory {self.bench!r}"
            )
        if not keep_history:
            key = (record.fingerprint, record.repeat, record.scale)
            self.runs = [
                run
                for run in self.runs
                if (run.fingerprint, run.repeat, run.scale) != key
            ]
        self.runs.append(record)

    def save(self, results_dir) -> pathlib.Path:
        path = self.path_for(results_dir, self.bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": BENCH_SCHEMA,
            "bench": self.bench,
            "runs": [run.to_dict() for run in self.runs],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    # -- queries -------------------------------------------------------

    def ok_runs(self, scale: str | None = None) -> list:
        return [
            run
            for run in self.runs
            if run.status == "ok" and (scale is None or run.scale == scale)
        ]

    def completed_keys(self, scale: str) -> set:
        """(fingerprint, repeat) pairs already recorded ok at ``scale``
        — what a resumed sweep may skip."""
        return {
            (run.fingerprint, run.repeat) for run in self.ok_runs(scale=scale)
        }

    def latest_ok(self, scale: str | None = None, metric: str | None = None):
        """Newest ok record (optionally restricted to one containing
        ``metric``), or None."""
        for run in reversed(self.ok_runs(scale=scale)):
            if metric is None or metric in run.metrics:
                return run
        return None


def stuck_params(trajectory: Trajectory, saturated=()) -> list:
    """Pairs of ok runs whose params differ while every metric agrees to
    the last digit: a param that moves nothing (or a row copied instead
    of run). Params the registration declares ``saturated`` are exempt.
    Returns one error string per offending pair."""
    errors = []
    for first, second in itertools.combinations(trajectory.ok_runs(), 2):
        moved = {
            key
            for key in first.params.keys() | second.params.keys()
            if first.params.get(key) != second.params.get(key)
        }
        if moved - set(saturated) and first.metrics == second.metrics:
            errors.append(
                f"{trajectory.bench}: runs {first.fingerprint} [{first.scale}] "
                f"and {second.fingerprint} [{second.scale}] differ in "
                f"{sorted(moved)} yet report identical metrics"
            )
    return errors


def validate_trajectory(payload) -> list:
    """Schema-check one trajectory object; returns error strings."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["trajectory: top level must be an object"]
    if payload.get("schema") != BENCH_SCHEMA:
        errors.append(f"trajectory: schema must be {BENCH_SCHEMA!r}")
    if not isinstance(payload.get("bench"), str) or not payload.get("bench"):
        errors.append("trajectory: 'bench' must be a non-empty string")
    runs = payload.get("runs")
    if not isinstance(runs, list):
        errors.append("trajectory: 'runs' must be a list")
        return errors
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            errors.append(f"{where}: must be an object")
            continue
        if run.get("bench") != payload.get("bench"):
            errors.append(f"{where}: bench mismatch")
        if run.get("status") not in _STATUSES:
            errors.append(f"{where}: status must be one of {_STATUSES}")
        if run.get("scale") not in _SCALES:
            errors.append(f"{where}: scale must be one of {_SCALES}")
        if not isinstance(run.get("params"), dict):
            errors.append(f"{where}: params must be an object")
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics must be an object")
        else:
            for name, value in metrics.items():
                if not isinstance(value, (int, float, bool)):
                    errors.append(
                        f"{where}: metric {name!r} must be numeric/boolean"
                    )
        if run.get("status") == "ok" and not metrics:
            errors.append(f"{where}: ok run with no metrics")
        if run.get("status") == "error" and not run.get("error"):
            errors.append(f"{where}: error run needs an 'error' message")
        if not isinstance(run.get("fingerprint"), str) or not run.get("fingerprint"):
            errors.append(f"{where}: missing fingerprint")
        if not isinstance(run.get("env"), dict):
            errors.append(f"{where}: env must be an object")
        if not isinstance(run.get("created"), str) or not run.get("created"):
            errors.append(f"{where}: missing created timestamp")
    return errors
