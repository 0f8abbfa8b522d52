"""Observability: span tracing, latency histograms, metrics export.

The cross-layer measurement surface of the reproduction (see
``docs/OBSERVABILITY.md``):

* :class:`Tracer` — nested, clock-timestamped spans with a
  zero-overhead disabled mode (:data:`NULL_TRACER`).
* :class:`Histogram` — log-bucketed, mergeable latency distributions
  (p50/p95/p99/max).
* :class:`MetricsRegistry` — labeled, mergeable named metrics unifying
  the per-layer stat bundles (:func:`collect_bundle`).
* Exporters — Prometheus text, JSON snapshot, Chrome ``trace_event``
  JSON (open in Perfetto to see the Figure 7 pipeline overlap).
* Distributed tracing — per-node traces merged into one causally
  flow-linked timeline (:func:`merge_trace_files`, wire context in
  :mod:`repro.network.messages`).
* :class:`FlightRecorder` — bounded postmortem ring dumped on failure
  triggers (declare-dead, promotion, migration abort, soak audit).
* :class:`SLOTracker` — serving objectives with error-budget burn
  rates and a machine-readable ``repro-slo-v1`` verdict.
"""

from repro.obs.exporters import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    render_snapshot,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.flightrec import FLIGHTREC_SCHEMA, FlightRecorder
from repro.obs.histogram import Histogram
from repro.obs.merge import MERGED_TRACE_SCHEMA, merge_trace_files, summarize_trace
from repro.obs.registry import Counter, Gauge, MetricsRegistry, collect_bundle
from repro.obs.slo import SLOTracker, render_verdict
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MERGED_TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "SLOTracker",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "collect_bundle",
    "merge_trace_files",
    "render_snapshot",
    "render_verdict",
    "summarize_trace",
    "write_chrome_trace",
    "write_metrics",
]
