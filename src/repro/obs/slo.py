"""Serving SLO objectives with error-budget burn tracking.

An SLO is a target over a window ("99% of lookups under 2 ms", "99.9%
of requests answered", "no row older than the staleness bound") plus
an **error budget**: the fraction of events allowed to violate the
target before the objective is exhausted. The tracker computes the
violation fraction per objective and reports the **burn rate** — the
ratio of violations consumed to violations allowed; burn > 1.0 means
the budget is spent and the objective has failed.

Three objective kinds:

- ``latency`` — each observation above ``threshold`` seconds is a
  violation. Observations feed the same log-bucketed
  :class:`~repro.obs.histogram.Histogram` the rest of the obs stack
  uses, and the violation count is read back off the cumulative bucket
  boundaries (conservative: a bucket straddling the threshold counts
  as violating).
- ``availability`` — explicit good/bad event counts (a failed or
  error-coded request is bad).
- ``staleness`` — good/bad counts where bad means a served row
  exceeded the checkpoint-lag bound ``threshold`` (in completed
  checkpoints).

:meth:`SLOTracker.verdict` emits a machine-readable, schema-versioned
record (``repro-slo-v1``) that the ``serving`` bench records and
``repro slo`` renders; :meth:`SLOTracker.emit_metrics` exports the
same numbers as ``repro_slo_*`` series on a
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.obs.histogram import Histogram

SLO_SCHEMA = "repro-slo-v1"

_KINDS = ("latency", "availability", "staleness")


class Objective:
    """One service-level objective and its running event counts."""

    def __init__(self, name: str, kind: str, threshold: float, budget: float):
        if kind not in _KINDS:
            raise ConfigError(f"unknown SLO kind {kind!r}, want one of {_KINDS}")
        if budget < 0 or budget >= 1:
            raise ConfigError(f"budget must be in [0, 1), got {budget}")
        self.name = name
        self.kind = kind
        self.threshold = threshold
        self.budget = budget
        self.histogram = Histogram(name) if kind == "latency" else None
        self.good = 0
        self.bad = 0

    def observe(self, seconds: float) -> None:
        if self.histogram is None:
            raise ConfigError(f"objective {self.name!r} ({self.kind}) takes "
                              "record(good=, bad=), not latency observations")
        self.histogram.observe(seconds)

    def record(self, good: int = 0, bad: int = 0) -> None:
        self.good += good
        self.bad += bad

    @property
    def events(self) -> int:
        if self.histogram is not None:
            return self.histogram.count
        return self.good + self.bad

    @property
    def violations(self) -> int:
        if self.histogram is None:
            return self.bad
        within = 0
        for upper, cumulative in self.histogram.cumulative_buckets():
            if upper <= self.threshold:
                within = cumulative
            else:
                break
        return self.histogram.count - within

    @property
    def violation_fraction(self) -> float:
        events = self.events
        return self.violations / events if events else 0.0

    @property
    def burn_rate(self) -> float:
        """Budget consumed: fraction violating / fraction allowed.

        A zero budget means any violation exhausts the objective
        (burn = inf); with no events the burn is 0.
        """
        fraction = self.violation_fraction
        if fraction == 0.0:
            return 0.0
        if self.budget == 0.0:
            return math.inf
        return fraction / self.budget

    @property
    def ok(self) -> bool:
        return self.burn_rate <= 1.0

    def report(self) -> dict:
        row = {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "budget": self.budget,
            "events": self.events,
            "violations": self.violations,
            "violation_fraction": self.violation_fraction,
            "burn_rate": self.burn_rate,
            "ok": self.ok,
        }
        if self.histogram is not None and self.histogram.count:
            row["p99_s"] = self.histogram.p99
        return row


class SLOTracker:
    """Named objectives + verdict/metric emission.

    Registration methods are get-or-create, so the serving tier and
    the bench can both register the same objective and feed it.
    """

    def __init__(self):
        self.objectives: dict[str, Objective] = {}

    # -- registration --------------------------------------------------

    def _register(self, name, kind, threshold, budget) -> Objective:
        existing = self.objectives.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigError(
                    f"objective {name!r} already registered as {existing.kind}"
                )
            return existing
        obj = Objective(name, kind, threshold, budget)
        self.objectives[name] = obj
        return obj

    def latency(self, name: str, threshold_s: float, budget: float = 0.01) -> Objective:
        """p-quantile style target: stay under ``threshold_s`` for all
        but a ``budget`` fraction of requests."""
        return self._register(name, "latency", threshold_s, budget)

    def availability(self, name: str, budget: float = 0.001) -> Objective:
        return self._register(name, "availability", 0.0, budget)

    def staleness(self, name: str, bound_k: int, budget: float = 0.0) -> Objective:
        return self._register(name, "staleness", float(bound_k), budget)

    # -- feeding -------------------------------------------------------

    def observe_latency(self, name: str, seconds: float) -> None:
        self.objectives[name].observe(seconds)

    def record(self, name: str, good: int = 0, bad: int = 0) -> None:
        self.objectives[name].record(good=good, bad=bad)

    # -- verdicts ------------------------------------------------------

    def exhausted(self) -> list[str]:
        """Names of objectives whose error budget is spent."""
        return [name for name, obj in self.objectives.items() if not obj.ok]

    def verdict(self) -> dict:
        objectives = [obj.report() for obj in self.objectives.values()]
        return {
            "schema": SLO_SCHEMA,
            "ok": all(row["ok"] for row in objectives),
            "objectives": objectives,
        }

    def emit_metrics(self, registry) -> None:
        """Export ``repro_slo_*`` series (call once, at end of run)."""
        for obj in self.objectives.values():
            labels = {"objective": obj.name, "kind": obj.kind}
            registry.counter("repro_slo_events_total", labels).add(obj.events)
            registry.counter("repro_slo_violations_total", labels).add(obj.violations)
            burn = obj.burn_rate
            registry.gauge("repro_slo_burn_rate", labels).set(
                burn if math.isfinite(burn) else -1.0
            )
            registry.gauge("repro_slo_budget_remaining", labels).set(
                max(0.0, 1.0 - burn) if math.isfinite(burn) else 0.0
            )


def render_verdict(verdict: dict) -> str:
    """Human-readable table for a ``repro-slo-v1`` verdict."""
    if verdict.get("schema") != SLO_SCHEMA:
        raise ConfigError(
            f"not a {SLO_SCHEMA} verdict: schema={verdict.get('schema')!r}"
        )
    lines = []
    header = (
        f"{'objective':<24} {'kind':<13} {'events':>8} {'viol':>6} "
        f"{'burn':>8}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in verdict["objectives"]:
        burn = row["burn_rate"]
        burn_s = "inf" if not math.isfinite(burn) else f"{burn:.3f}"
        status = "ok" if row["ok"] else "BUDGET EXHAUSTED"
        lines.append(
            f"{row['name']:<24} {row['kind']:<13} {row['events']:>8} "
            f"{row['violations']:>6} {burn_s:>8}  {status}"
        )
    lines.append("")
    lines.append("overall: " + ("ok" if verdict["ok"] else "FAILED"))
    return "\n".join(lines)
