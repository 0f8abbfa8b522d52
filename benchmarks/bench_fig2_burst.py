"""Figure 2: access pattern in two batches — burst I/O in pairs.

Reads every pull/update burst off the simulator's ``iter.pull`` /
``iter.push`` spans over a few synchronous batches and buckets their
requests per millisecond. The figure's two signatures:

1. pulls and updates come in equal totals ("in pairs"),
2. traffic concentrates in instantaneous bursts at batch boundaries
   with an idle gap (GPU compute) in between.
"""

from collections import Counter

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.obs import Tracer
from repro.simulation.cluster import SystemKind


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["pairs_equal"],
         "pull and update totals differ (requests not paired)"),
        # The bursts occupy a small fraction of wall time: idle
        # GPU-compute gaps separate them.
        (metrics["busy_ms"] <= 2 * params["iterations"],
         f"traffic not bursty: {metrics['busy_ms']} busy ms for "
         f"{params['iterations']} iterations"),
        (metrics["busy_ms"] < metrics["span_ms"],
         "requests in every millisecond of the run: no idle gap"),
    )


@register(
    "fig2_burst",
    params=[
        Param("workers", "int", 4),
        Param("iterations", "int", 4),
    ],
    headline={"pairs_equal": Headline()},
    check=_check,
    refs=[
        Ref("pull_total", "pull total", "{}", paper="pull == update"),
        Ref("update_total", "update total (pairs)", "{}", paper="pull == update"),
        Ref("busy_ms", "busy ms (bursts)", "{}", paper="sharp spikes"),
        Ref("span_ms", "total ms", "{}"),
    ] + [
        # The figure itself: each busy millisecond, in time order —
        # pull and update bursts alternate (first 8 shown).
        ref
        for burst in range(8)
        for ref in (
            Ref(f"burst{burst}_ms", f"burst {burst}: t", "{} ms"),
            Ref(f"burst{burst}_requests", f"burst {burst}: requests", "{}"),
        )
    ],
)
def entry(*, workers, iterations):
    """Figure 2: per-ms request pattern over a few synchronous batches —
    pull/update pairing and burst concentration."""
    tracer = Tracer()
    result = simulate_epoch(
        SystemKind.PMEM_OE, workers=workers, iterations=iterations,
        tracer=tracer,
    )
    totals, per_ms = Counter(), Counter()
    for span in tracer.spans_named("iter.pull") + tracer.spans_named("iter.push"):
        totals[span.name] += span.attrs["requests"]
        per_ms[int(span.start * 1000)] += span.attrs["requests"]
    bursts = sorted(per_ms.items())
    metrics = {
        "pairs_equal": totals["iter.pull"] == totals["iter.push"],
        "pull_total": totals["iter.pull"],
        "update_total": totals["iter.push"],
        "busy_ms": len(bursts),
        "span_ms": int(result.sim_seconds * 1000) + 1,
    }
    for index, (ms, requests) in enumerate(bursts):
        metrics[f"burst{index}_ms"] = ms
        metrics[f"burst{index}_requests"] = requests
    return metrics
