"""The benchmark registry: one statement of each experiment.

Each ``benchmarks/bench_*.py`` registers one callable entry point with
a *typed parameter space*, optional smoke-scale overrides, *headline
metrics* (what the regression gate guards, with per-metric
thresholds), an acceptance ``check``, and the figure's *paper
reference*: the lines of its paper-vs-measured table (:class:`Ref`,
toleranced where the paper quotes a number) and the relations that
must hold between its points (:class:`Trend`)::

    from repro.bench import Headline, Param, Ref, Trend, register

    @register(
        "fig7_pipeline",
        params=[Param("workers", "int", 16)],
        headline={"oe_ratio": Headline(direction="lower", max_regression=0.05)},
        check=lambda m, p: [] if m["oe_ratio"] < m["ori_ratio"] else ["..."],
        along="workers",
        refs=[Ref("oe_ratio", "PMem-OE @ {workers} GPUs", "{:.3f}x",
                  paper={4: 1.012, 8: 1.043, 16: 1.087}, abs=0.06)],
        trends=[Trend("ori_ratio", along="workers", shape="rising")],
    )
    def entry(*, workers):
        ...
        return {"oe_ratio": 1.061, "ori_ratio": 2.32}

Entries return a flat ``{metric: number}`` dict; the sweep runner wraps
them in ``repro-bench-v1`` records. :meth:`BenchSpec.verify` is the one
place a set of recorded rows is held to the per-point and cross-point
assertions, :meth:`BenchSpec.table` the one place they are printed.
:func:`discover` imports every ``benchmarks.bench_*`` module so the
global :data:`REGISTRY` is populated from a bare checkout.
"""

from __future__ import annotations

import importlib
import pathlib
import sys
from dataclasses import dataclass, field

from repro.bench.space import Param
from repro.errors import ConfigError

__all__ = [
    "REGISTRY",
    "BenchRegistry",
    "BenchSpec",
    "Headline",
    "Ref",
    "Trend",
    "discover",
    "register",
]

_DIRECTIONS = ("higher", "lower")
_SHAPES = ("rising", "falling", "flat")


@dataclass(frozen=True)
class Headline:
    """Gate policy for one headline metric.

    ``direction`` is the *good* direction; ``max_regression`` is the
    tolerated fractional move the bad way; ``noise`` is an absolute
    floor below which any move is ignored (wall-clock jitter).
    """

    direction: str = "higher"
    max_regression: float = 0.10
    noise: float = 0.0

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ConfigError(
                f"headline direction {self.direction!r} not in {_DIRECTIONS}"
            )
        if self.max_regression < 0 or self.noise < 0:
            raise ConfigError("headline thresholds must be non-negative")


@dataclass(frozen=True)
class Ref:
    """One paper-vs-measured line of a benchmark's table.

    ``label`` may name params (``"@ {workers} GPUs"``); ``fmt`` prints
    the measured value and a numeric paper value alike. ``paper`` is
    text shown verbatim, a number, or ``{point: number}`` keyed by the
    value(s) of the registration's ``along`` param(s). With ``abs`` /
    ``rel`` the measurement must sit that close to a numeric paper
    value, or the row fails :meth:`BenchSpec.failures`.
    """

    metric: str
    label: str
    fmt: str = "{:.3f}"
    paper: object = "-"
    abs: float | None = None
    rel: float | None = None

    def quoted(self, point):
        """The paper's value at one figure point (``"-"``: not quoted)."""
        return self.paper.get(point, "-") if isinstance(self.paper, dict) else self.paper

    def miss(self, value, point) -> str | None:
        """Why ``value`` is too far from the paper at ``point``, if it is."""
        paper = self.quoted(point)
        if isinstance(paper, str) or self.abs is self.rel is None:
            return None
        tolerance = self.abs if self.abs is not None else self.rel * abs(paper)
        if abs(value - paper) <= tolerance:
            return None
        return (
            f"measured {self.fmt.format(value)} vs paper "
            f"{self.fmt.format(paper)} (tolerance {tolerance:.3g})"
        )


@dataclass(frozen=True)
class Trend:
    """A relation between the points of one figure.

    ``metric`` read along param ``along`` — every other param held
    equal — is ``rising``, ``falling`` (ties allowed unless ``strict``)
    or ``flat``. ``by`` is the least end-to-end move of a rising /
    falling series, or the widest spread of a flat one; ``points``
    restricts the series to those values of ``along``.
    """

    metric: str
    along: str
    shape: str = "rising"
    strict: bool = False
    by: float | None = None
    points: tuple = ()

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ConfigError(f"trend shape {self.shape!r} not in {_SHAPES}")

    def series(self, rows) -> list:
        """The ``[(along value, metric value), ...]`` series this trend
        reads in ``(params, metrics)`` rows: one per set of rows that
        differ only in ``along``."""
        groups: dict = {}
        for params, metrics in rows:
            x = params[self.along]
            if not self.points or x in self.points:
                held = tuple(sorted(
                    item for item in params.items() if item[0] != self.along
                ))
                groups.setdefault(held, []).append((x, metrics[self.metric]))
        return list(groups.values())

    def violations(self, series) -> list:
        """Failures over one series."""
        series = sorted(series)
        if len(series) < 2:
            return []
        values = [value for __, value in series]
        where = f"{self.metric} along {self.along}={[x for x, __ in series]}"
        if self.shape == "flat":
            spread = max(values) - min(values)
            if spread <= self.by:
                return []
            return [f"{where}: spread {spread:.4g} exceeds {self.by:g}"]
        sign = 1 if self.shape == "rising" else -1
        found = []
        steps = [sign * (b - a) for a, b in zip(values, values[1:])]
        if any(step < -1e-9 or (self.strict and step <= 0) for step in steps):
            found.append(f"{where}: not {self.shape}: {values}")
        if self.by is not None and sign * (values[-1] - values[0]) <= self.by:
            found.append(f"{where}: ends differ by no more than {self.by:g}")
        return found


@dataclass
class BenchSpec:
    """One registered benchmark: entry point + typed parameter space +
    the paper reference its recorded rows are printed and held against."""

    name: str
    fn: object
    params: dict = field(default_factory=dict)  # name -> Param
    smoke: dict = field(default_factory=dict)  # param overrides at smoke scale
    headline: dict = field(default_factory=dict)  # metric -> Headline
    check: object = None  # (metrics, params) -> list[str] of failures
    description: str = ""
    along: tuple = ()  # params that name a figure point (keys of Ref.paper)
    refs: tuple = ()  # the paper-vs-measured table, line by line
    trends: tuple = ()  # cross-point assertions
    saturated: dict = field(default_factory=dict)  # param -> why it moves nothing

    def resolve(self, overrides: dict | None = None, scale: str = "smoke") -> dict:
        """Defaults (+ smoke overlay) + coerced overrides -> full params."""
        resolved = {name: param.default for name, param in self.params.items()}
        if scale == "smoke":
            resolved.update(self.smoke)
        for key, value in (overrides or {}).items():
            if key not in self.params:
                raise ConfigError(
                    f"bench {self.name!r}: unknown param {key!r} "
                    f"(has {sorted(self.params)})"
                )
            resolved[key] = value
        return {
            name: self.params[name].coerce(value)
            for name, value in resolved.items()
        }

    def run(self, params: dict, artifacts: dict | None = None) -> dict:
        """Execute the entry point; validates the returned metrics.

        An entry may return JSON documents beside its metrics under the
        ``"artifacts"`` key (``{file name: payload}``); they are moved
        into ``artifacts`` for the recorder to write next to the
        trajectory, and dropped when the caller passes none.
        """
        metrics = self.fn(**params)
        if not isinstance(metrics, dict) or not metrics:
            raise ConfigError(
                f"bench {self.name!r}: entry must return a non-empty metrics "
                f"dict, got {type(metrics).__name__}"
            )
        documents = metrics.pop("artifacts", {})
        if artifacts is not None:
            artifacts.update(documents)
        bad = {
            key: value
            for key, value in metrics.items()
            if not isinstance(value, (int, float, bool))
        }
        if bad:
            raise ConfigError(
                f"bench {self.name!r}: non-numeric metrics {sorted(bad)}"
            )
        return metrics

    def point(self, params: dict):
        """The figure point a cell sits at: its ``along`` value(s)."""
        values = tuple(params[name] for name in self.along)
        return values[0] if len(values) == 1 else values

    def failures(self, metrics: dict, params: dict) -> list:
        """Per-point acceptance: the ``check`` lines plus every
        toleranced paper reference."""
        found = list(self.check(metrics, params)) if self.check else []
        for ref in self.refs:
            if ref.metric in metrics:
                miss = ref.miss(metrics[ref.metric], self.point(params))
                if miss:
                    found.append(f"{ref.label.format(**params)}: {miss}")
        return found

    def verify(self, rows) -> list:
        """Every assertion over one set of ``(params, metrics)`` rows:
        :meth:`failures` per row, then each :class:`Trend` over each of
        its series."""
        found = []
        for params, metrics in rows:
            label = " ".join(f"{key}={value}" for key, value in params.items())
            found += [
                f"{self.name} [{label}]: {failure}"
                for failure in self.failures(metrics, params)
            ]
        for trend in self.trends:
            for series in trend.series(rows):
                found += [
                    f"{self.name}: {failure}"
                    for failure in trend.violations(series)
                ]
        return found

    def table(self, rows) -> list:
        """The paper-vs-measured lines of ``(params, metrics)`` rows,
        ordered by figure point."""
        lines = []
        if self.along:
            rows = sorted(rows, key=lambda row: self.point(row[0]))
        for params, metrics in rows:
            for ref in self.refs:
                if ref.metric not in metrics:
                    continue
                paper = ref.quoted(self.point(params))
                if not isinstance(paper, str):
                    paper = ref.fmt.format(paper)
                lines.append(
                    f"  {ref.label.format(**params):<30} paper: {paper:<16} "
                    f"measured: {ref.fmt.format(metrics[ref.metric])}"
                )
        return lines


class BenchRegistry:
    """Name -> :class:`BenchSpec`, with duplicate protection."""

    def __init__(self):
        self._specs: dict[str, BenchSpec] = {}

    def add(self, spec: BenchSpec) -> None:
        if spec.name in self._specs:
            raise ConfigError(f"benchmark {spec.name!r} already registered")
        self._specs[spec.name] = spec

    def get(self, name: str) -> BenchSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs)) or "<none>"
            raise ConfigError(
                f"unknown benchmark {name!r} (registered: {known})"
            ) from None

    def names(self) -> list:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def register(
        self,
        name: str,
        *,
        params=(),
        smoke: dict | None = None,
        headline: dict | None = None,
        check=None,
        description: str = "",
        along=(),
        refs=(),
        trends=(),
        saturated: dict | None = None,
    ):
        """Decorator form; see module docstring for the shape."""

        def decorate(fn):
            space = {}
            for param in params:
                if not isinstance(param, Param):
                    raise ConfigError(
                        f"bench {name!r}: params must be Param instances"
                    )
                if param.name in space:
                    raise ConfigError(
                        f"bench {name!r}: duplicate param {param.name!r}"
                    )
                space[param.name] = param
            points = (along,) if isinstance(along, str) else tuple(along)
            named = [*(smoke or {}), *points, *(saturated or {})]
            for key in named + [trend.along for trend in trends]:
                if key not in space:
                    raise ConfigError(
                        f"bench {name!r}: smoke / along / trends / saturated "
                        f"name unknown param {key!r}"
                    )
            summary = " ".join((fn.__doc__ or "").split("\n\n")[0].split())
            spec = BenchSpec(
                name=name,
                fn=fn,
                params=space,
                smoke=dict(smoke or {}),
                headline=dict(headline or {}),
                check=check,
                description=description or summary,
                along=points,
                refs=tuple(refs),
                trends=tuple(trends),
                saturated=dict(saturated or {}),
            )
            self.add(spec)
            return fn

        return decorate


#: The process-global registry that ``discover()`` populates.
REGISTRY = BenchRegistry()


def register(name, **kwargs):
    """Register into the global :data:`REGISTRY` (decorator)."""
    return REGISTRY.register(name, **kwargs)


def _benchmarks_dir() -> pathlib.Path | None:
    """The repository's ``benchmarks/`` directory, if checked out."""
    root = pathlib.Path(__file__).resolve().parents[3]
    candidate = root / "benchmarks"
    if (candidate / "__init__.py").is_file():
        return candidate
    return None


def discover() -> int:
    """Import every ``benchmarks.bench_*`` module, populating the
    global registry; returns the number of modules imported.

    Safe to call repeatedly (imports are cached). Puts the checkout
    root on ``sys.path`` — the one place that happens, so bench modules
    import ``benchmarks.common`` and ``tests.harness`` plainly. Raises
    ConfigError when the benchmarks package is not present (installed
    wheel without the repository checkout).
    """
    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        raise ConfigError(
            "benchmarks/ package not found next to the repro checkout; "
            "the bench registry needs the repository, not an installed wheel"
        )
    root = str(bench_dir.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    count = 0
    for path in sorted(bench_dir.glob("bench_*.py")):
        importlib.import_module(f"benchmarks.{path.stem}")
        count += 1
    return count
