"""A unified, labeled, mergeable metrics registry.

A node's stat bundle (:class:`~repro.simulation.metrics.Metrics`: its
``CacheStats`` and plain ints) tells each layer's story. A
:class:`MetricsRegistry` puts them under *named metrics with label
sets* — the per-PS-node cluster
view the paper's evaluation needs, and the shape the exporters
(:mod:`repro.obs.exporters`) serialize.

Three metric kinds:

* :class:`Counter` — monotone accumulator; merge = sum.
* :class:`Gauge` — last-written value; merge = last writer wins.
* :class:`~repro.obs.histogram.Histogram` — log-bucketed distribution;
  merge = exact bucket-wise sum.

:func:`collect_bundle` hoists one node's :class:`Metrics` bundle into
labeled registry counters (call it once per node at snapshot time, with
``labels={"node": str(i)}`` for the cluster path). Two registries merge
metric-by-metric on (name, labels), so per-node registries roll up into
a cluster view without losing the per-node series.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.histogram import Histogram

LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone named counter (float-valued for seconds totals)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def add(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease (add {n})")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A point-in-time value; merging keeps the other's if it was set."""

    __slots__ = ("name", "value", "_set")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._set = True

    def merge(self, other: "Gauge") -> None:
        if other._set:
            self.value = other.value
            self._set = True

    def reset(self) -> None:
        self.value = 0.0
        self._set = False


class MetricsRegistry:
    """Named metrics, each a family of label-set instances.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    (name, labels) always returns the same object, so call sites can
    re-fetch instead of holding references. A name is bound to exactly
    one metric kind; mixing kinds raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], object] = {}
        self._kinds: dict[str, type] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(
        self, name: str, labels: dict[str, str] | None = None, unit: str = "seconds"
    ) -> Histogram:
        metric = self._get(name, labels, Histogram)
        if unit != "seconds" and metric.unit == "seconds" and metric.count == 0:
            metric.unit = unit
        return metric

    def _get(self, name: str, labels: dict[str, str] | None, kind: type):
        if not name:
            raise ConfigError("metric name must be non-empty")
        bound = self._kinds.get(name)
        if bound is not None and bound is not kind:
            raise ConfigError(
                f"metric {name!r} already registered as {bound.__name__}, "
                f"not {kind.__name__}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name)
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    # ------------------------------------------------------------------
    # iteration / algebra
    # ------------------------------------------------------------------

    def items(self) -> list[tuple[str, dict[str, str], object]]:
        """``(name, labels, metric)`` triples, name-then-label ordered."""
        out = []
        for (name, label_key), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            out.append((name, dict(label_key), metric))
        return out

    def find(self, name: str, labels: dict[str, str] | None = None):
        """The metric at (name, labels), or None."""
        return self._metrics.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry metric-by-metric.

        Same (name, labels) instances merge by kind (counters sum,
        histograms add buckets, gauges last-writer-wins); label sets
        present only in ``other`` are copied in — this is how per-node
        registries roll up into the cluster registry.
        """
        for name, labels, metric in other.items():
            kind = type(metric)
            mine = self._get(name, labels, kind)
            mine.merge(metric)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()


# ----------------------------------------------------------------------
# bundle -> registry bridge
# ----------------------------------------------------------------------

#: (metric name, attribute path) pairs hoisted by :func:`collect_bundle`.
_BUNDLE_COUNTERS: tuple[tuple[str, str], ...] = (
    ("repro_pulls_total", "pulls"),
    ("repro_updates_total", "updates"),
    ("repro_cache_created_rows_total", "entries_created"),
    ("repro_checkpoints_completed_total", "checkpoints_completed"),
    ("repro_checkpoint_drained_rows_total", "checkpoint_drained_rows"),
    ("repro_pmem_flush_entries_total", "pmem_flush_entries"),
    ("repro_cache_hits_total", "cache.hits"),
    ("repro_cache_misses_total", "cache.misses"),
    ("repro_cache_evictions_total", "cache.evictions"),
    ("repro_cache_flushes_total", "cache.flushes"),
    ("repro_cache_loads_total", "cache.loads"),
    ("repro_rpc_dup_suppressed_total", "dup_suppressed"),
    ("repro_serving_lookups_total", "serving_lookups"),
    ("repro_serving_rows_total", "serving_rows"),
    ("repro_serving_cold_rows_total", "serving_cold_rows"),
)


def collect_bundle(
    registry: MetricsRegistry, bundle, labels: dict[str, str] | None = None
) -> None:
    """Hoist one :class:`~repro.simulation.metrics.Metrics` bundle.

    Adds the bundle's counters into labeled registry counters and sets
    the derived ``repro_cache_miss_rate`` gauge. Call once per bundle
    per snapshot (counters accumulate); for a cluster, label each node
    (``{"node": "0"}``, ...).
    """
    for metric_name, path in _BUNDLE_COUNTERS:
        obj = bundle
        for part in path.split("."):
            obj = getattr(obj, part)
        if obj:
            registry.counter(metric_name, labels).add(obj)
    registry.gauge("repro_cache_miss_rate", labels).set(bundle.cache.miss_rate)
