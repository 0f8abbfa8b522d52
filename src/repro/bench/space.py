"""Typed parameter spaces and declarative sweep grids.

Two layers:

* :class:`Param` — one typed, defaulted parameter of a registered
  benchmark (``BenchSpec.params``). The registry coerces and validates
  every sweep cell against these before a worker ever runs.
* :class:`Axis` / :class:`Grid` — a declarative sweep grid: the cross
  product of axes, where an axis may be *conditional* (``when=``) on
  the values of other axes. The canonical grid carries a ``bench``
  axis, so one grid fans out over several benchmarks with per-benchmark
  parameter axes.

Grids come from three places: Python (construct :class:`Grid`
directly), an inline spec string (``parse_grid``), or a JSON file
(``load_grid``). The inline syntax::

    bench=prefetch,hotpath; lookahead[bench=prefetch]=0,1,2,4

declares a ``bench`` axis with two values and a ``lookahead`` axis that
only applies to ``prefetch`` cells. Scalars are type-inferred
(int -> float -> bool -> str).
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "Axis",
    "Grid",
    "Param",
    "expand_grid",
    "load_grid",
    "parse_grid",
]

_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
}


def _infer(token: str):
    """Type-infer one scalar token from an inline grid spec."""
    text = token.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


@dataclass(frozen=True)
class Param:
    """One typed parameter of a registered benchmark."""

    name: str
    type: str = "int"
    default: object = None
    choices: tuple | None = None
    help: str = ""

    def __post_init__(self):
        if self.type not in _TYPES:
            raise ConfigError(
                f"param {self.name!r}: unknown type {self.type!r} "
                f"(one of {sorted(_TYPES)})"
            )

    def coerce(self, value):
        """Coerce ``value`` to this parameter's type; raise ConfigError."""
        target = _TYPES[self.type]
        if self.type == "bool" and isinstance(value, str):
            if value.lower() in ("true", "1", "yes"):
                value = True
            elif value.lower() in ("false", "0", "no"):
                value = False
        if self.type == "float" and isinstance(value, int):
            value = float(value)
        if not isinstance(value, target) or (
            target is int and isinstance(value, bool)
        ):
            try:
                if target is not bool:
                    value = target(value)
                else:
                    raise ValueError(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"param {self.name!r}: {value!r} is not a {self.type}"
                ) from None
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"param {self.name!r}: {value!r} not in {list(self.choices)}"
            )
        return value


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a name, its values, and an optional condition.

    ``when`` maps *other* axis names to the values under which this
    axis applies. In cells where the condition does not hold, the axis
    is simply omitted (the benchmark's declared default applies).
    """

    name: str
    values: tuple
    when: tuple = ()  # ((axis_name, (allowed, ...)), ...)

    def __post_init__(self):
        if not self.values:
            raise ConfigError(f"axis {self.name!r}: empty value list")

    def applies(self, partial: dict) -> bool:
        """Does this axis apply to a cell with the given axis values?"""
        for other, allowed in self.when:
            if other not in partial:
                raise ConfigError(
                    f"axis {self.name!r}: condition on {other!r}, which is "
                    "not declared before it"
                )
            if partial[other] not in allowed:
                return False
        return True


@dataclass
class Grid:
    """A declarative sweep grid: ordered axes, expanded on demand."""

    axes: list = field(default_factory=list)
    name: str = "grid"

    def axis(self, name: str, *values, when: dict | None = None) -> "Grid":
        """Append an axis; returns self for chaining."""
        condition = tuple(
            (key, tuple(value if isinstance(value, (list, tuple)) else (value,)))
            for key, value in (when or {}).items()
        )
        self.axes.append(Axis(name, tuple(values), condition))
        return self

    def cells(self) -> list:
        """Expand to the ordered, de-duplicated list of cell dicts."""
        return expand_grid(self.axes)


def expand_grid(axes) -> list:
    """Cross product of ``axes`` honouring conditional (``when``) axes.

    Axes are processed in declared order; a conditional axis may only
    reference axes declared before it. A name may repeat when the
    repeats are conditional — each occurrence fills the cells its
    condition selects that no earlier one did, so benchmarks that share
    a param name (``workers``) sweep different values in one grid.
    Cells that collapse to the same parameter dict (because a
    conditional axis was omitted) are de-duplicated, keeping first
    occurrence order.
    """
    names = set()
    for axis in axes:
        if axis.name in names and not axis.when:
            raise ConfigError(f"axis {axis.name!r} repeats without a condition")
        names.add(axis.name)
    cells = [{}]
    for axis in axes:
        expanded = []
        for cell in cells:
            if axis.name not in cell and axis.applies(cell):
                for value in axis.values:
                    grown = dict(cell)
                    grown[axis.name] = value
                    expanded.append(grown)
            else:
                expanded.append(cell)
        cells = expanded
    unique, seen = [], set()
    for cell in cells:
        key = tuple(sorted(cell.items()))
        if key not in seen:
            seen.add(key)
            unique.append(cell)
    return unique


def parse_grid(spec: str, name: str = "inline") -> Grid:
    """Parse the inline ``a=1,2; b[a=1]=x,y`` grid syntax."""
    grid = Grid(name=name)
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigError(f"grid clause {clause!r}: expected name=v1,v2,...")
        when: dict = {}
        bracket = clause.find("[")
        if bracket != -1 and bracket < clause.find("="):
            close = clause.find("]", bracket)
            if close == -1:
                raise ConfigError(f"grid clause {clause!r}: unclosed condition")
            head = clause[:bracket]
            condition = clause[bracket + 1 : close]
            rest = clause[close + 1 :].strip()
            if not rest.startswith("="):
                raise ConfigError(
                    f"grid clause {clause!r}: expected '=' after condition"
                )
            values_text = rest[1:]
            for term in condition.split(","):
                if "=" not in term:
                    raise ConfigError(
                        f"grid clause {clause!r}: condition term {term!r} "
                        "needs axis=value"
                    )
                axis_name, _, allowed = term.partition("=")
                when.setdefault(axis_name.strip(), []).extend(
                    _infer(tok) for tok in allowed.split("|")
                )
        else:
            head, _, values_text = clause.partition("=")
        values = [_infer(tok) for tok in values_text.split(",") if tok.strip() != ""]
        if not values:
            raise ConfigError(f"grid clause {clause!r}: no values")
        grid.axis(head.strip(), *values, when=when or None)
    if not grid.axes:
        raise ConfigError(f"empty grid spec {spec!r}")
    return grid


def load_grid(path) -> Grid:
    """Load a JSON grid file.

    Schema::

        {"name": "ci-smoke",
         "axes": [{"name": "bench", "values": ["prefetch", "hotpath"]},
                  {"name": "lookahead", "values": [0, 2],
                   "when": {"bench": ["prefetch"]}}]}
    """
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid file {path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("axes"), list):
        raise ConfigError(f"grid file {path}: expected an object with 'axes'")
    grid = Grid(name=payload.get("name", path.stem))
    for entry in payload["axes"]:
        if not isinstance(entry, dict) or "name" not in entry or "values" not in entry:
            raise ConfigError(
                f"grid file {path}: each axis needs 'name' and 'values'"
            )
        grid.axis(entry["name"], *entry["values"], when=entry.get("when"))
    return grid
