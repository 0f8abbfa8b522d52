"""Observability overhead: tracing must be free when off, cheap when on.

Three configurations of the *same* simulated training run:

* ``off``     — no tracer, no registry (the default every component
  falls back to: the shared ``NULL_TRACER`` no-op path);
* ``noop``    — a disabled ``Tracer`` passed explicitly, exercising the
  no-op span context manager on every call site;
* ``enabled`` — a live ``Tracer`` plus a ``MetricsRegistry``, with a
  ``FlightRecorder`` tapped into the tracer, recording every span,
  instant event, and histogram observation (and ringing each into the
  bounded postmortem buffer). Context propagation rides the same
  switch: a live tracer stamps trace context onto every RPC frame.

Two invariants are asserted:

1. **Semantics**: the simulated outcome (``sim_seconds``, request
   counts, per-phase totals) is bit-identical across all three
   configurations.  Observability must never perturb what it observes.
2. **Cost**: enabled tracing adds less than the ``ceiling`` to the
   best-of-N wall time of the untraced run.

This is the one wall-clock bench of the registry: ``overhead`` /
``noop_overhead`` / ``wall_off_s`` differ run to run, so they are
exempt from the "same numbers" rule the SimClock benches obey; the
deterministic half (``identical``, ``events``, ``sim_seconds``,
``requests``) is not.
"""

from __future__ import annotations

import dataclasses
import time

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    PrefetchConfig,
    WorkloadConfig,
)
from repro.obs import FlightRecorder, MetricsRegistry, Tracer
from repro.simulation.cluster import SystemKind
from repro.simulation.trainer_sim import TrainingSimulator
from repro.workload.generator import WorkloadGenerator

CONFIGS = ("off", "noop", "enabled")


def _sinks(config: str):
    if config == "off":
        return None, None
    if config == "noop":
        return Tracer(enabled=False), None
    return Tracer(recorder=FlightRecorder()), MetricsRegistry()


def _run(config: str, iterations: int):
    """One simulated run; returns (result, wall_seconds, events)."""
    tracer, registry = _sinks(config)
    simulator = TrainingSimulator(
        SystemKind.PMEM_OE,
        cluster=ClusterConfig(num_workers=8, batch_size=256),
        checkpoint=CheckpointConfig(interval_seconds=0.5),
        workload=WorkloadGenerator(WorkloadConfig(num_keys=50_000, seed=11)),
        prefetch=PrefetchConfig(lookahead=2),
        tracer=tracer,
        registry=registry,
    )
    start = time.perf_counter()
    result = simulator.run(iterations)
    wall = time.perf_counter() - start
    events = 0
    if tracer is not None:
        events = len(tracer.closed_spans()) + len(tracer.instants)
    return result, wall, events


def _fingerprint(result) -> dict:
    """Everything semantic in a run result."""
    fields = dataclasses.asdict(result)
    fields["system"] = result.system.value
    return fields


def measure(iterations: int, repeats: int):
    """Best-of-``repeats`` wall time per configuration + identity check."""
    _run("off", iterations)  # warm caches so config order doesn't bias
    walls = {config: [] for config in CONFIGS}
    events = {config: 0 for config in CONFIGS}
    fingerprints = {}
    for __ in range(repeats):
        for config in CONFIGS:
            result, wall, count = _run(config, iterations)
            walls[config].append(wall)
            events[config] = count
            fingerprint = _fingerprint(result)
            if config not in fingerprints:
                fingerprints[config] = fingerprint
            elif fingerprints[config] != fingerprint:
                raise AssertionError(
                    f"{config}: run is not deterministic across repeats"
                )
    reference = fingerprints["off"]
    for config in ("noop", "enabled"):
        if fingerprints[config] != reference:
            diff = [
                key
                for key, value in fingerprints[config].items()
                if reference[key] != value
            ]
            raise AssertionError(
                f"observability perturbed the simulation: {config} "
                f"differs from off in {diff}"
            )
    best = {config: min(times) for config, times in walls.items()}
    return best, events, reference


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["identical"], "observability perturbed the simulated outcome"),
        (metrics["overhead"] < params["ceiling"],
         f"enabled tracing overhead {metrics['overhead']:+.1%} "
         f">= ceiling {params['ceiling']:.0%}"),
    )


@register(
    "obs_overhead",
    params=[
        Param("iterations", "int", 200),
        Param("repeats", "int", 5),
        # Softer than the 5% a quiet machine holds: wall-clock overhead
        # on shared CI runners jitters by several points, and the
        # deterministic `identical` invariant is the guard that matters.
        Param("ceiling", "float", 0.15),
    ],
    smoke={"iterations": 40, "repeats": 3},
    # `overhead` is wall-clock: the same tree reads -15 %..+8 % run to
    # run on a shared machine, so the gate holds the deterministic
    # invariant and the ceiling stays with `check`.
    headline={"identical": Headline()},
    check=_check,
    saturated={"ceiling": "consumed by the acceptance check, not the run"},
    refs=[
        Ref("sim_seconds", "simulated outcome (all configs)", "sim_seconds={:.6f}",
            paper="identical"),
        Ref("requests", "  demand requests", "{}", paper="identical"),
        Ref("wall_off_s", "off: wall (varies run to run)", "{:.4f} s"),
        Ref("noop_overhead", "noop: overhead (varies)", "{:+.1%}"),
        Ref("overhead", "enabled: overhead (varies)", "{:+.1%}", paper="< 5%"),
        Ref("events", "enabled: events recorded", "{}"),
    ],
)
def entry(*, iterations, repeats, ceiling):
    """Observability overhead: enabled-tracing wall-clock cost on the
    simulated training loop, and the semantics-identical invariant."""
    del ceiling  # consumed by the acceptance check, not the run
    best, events, reference = measure(iterations, repeats)
    base = best["off"]
    return {
        "overhead": (best["enabled"] - base) / base,
        "noop_overhead": (best["noop"] - base) / base,
        "wall_off_s": base,
        "identical": True,  # measure() raises on any divergence
        "events": events["enabled"],
        "sim_seconds": reference["sim_seconds"],
        "requests": reference["total_requests"],
    }
