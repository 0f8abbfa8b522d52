"""Lookahead prefetch ablation: depth x cache size x fault rate.

The tentpole claim: peeking ``lookahead`` batches ahead, deduplicating
keys across the window and overlapping the pulls (plus the deferred
``maintain()``) with GPU compute hides nearly the whole PS round-trip —
>= 1.3x simulated epoch throughput at lookahead >= 2 on the default
Zipfian workload — while the weights stay bit-identical to the serial
pull protocol, even over a faulty RPC wire.

Two halves per cell:

* the **simulated** half prices one epoch at the shared benchmark
  operating point with and without the pipeline (lookahead depth and
  cache size are the swept params) and reports the speedup;
* the **functional** half trains a real DeepFM serially in-process and
  pipelined over the (fault-injected) RPC wire, and byte-compares every
  final embedding, dense parameter, and loss.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import failures, simulate_epoch
from repro.bench import Headline, Param, Ref, register
from repro.config import (
    CacheConfig,
    NetworkFaultConfig,
    PrefetchConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.network.frontend import RemotePSClient
from repro.obs import Tracer
from repro.simulation.cluster import SystemKind
from repro.simulation.profiles import DEFAULT_PROFILE

# --- functional (bit-identicality) half ---------------------------------

FIELDS, DIM, BATCHES = 6, 8, 10


def _functional_backend(kind: str, seed: int, fault_rate: float = 0.0):
    server = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=seed
    )
    cache = CacheConfig(capacity_bytes=48 * DIM * 4 * 2)
    optimizer = PSAdagrad(lr=0.05)
    if kind == "local":
        return OpenEmbeddingServer(server, cache, optimizer)
    faults = None
    retry = None
    if fault_rate > 0.0:
        faults = NetworkFaultConfig(
            drop_rate=fault_rate,
            duplicate_rate=fault_rate / 2,
            corrupt_rate=fault_rate / 2,
            seed=seed,
        )
        retry = RetryConfig(
            max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=seed
        )
    return RemotePSClient(server, cache, optimizer, faults=faults, retry=retry)


def _train_functional(kind: str, seed: int, prefetch, fault_rate: float = 0.0):
    backend = _functional_backend(kind, seed, fault_rate)
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=seed)
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=150, seed=seed)
    trainer = SynchronousTrainer(
        backend,
        model,
        dataset,
        num_workers=2,
        batch_size=12,
        dense_optimizer=Adam(1e-2),
        checkpoint_every=4,
        prefetch=prefetch,
    )
    results = trainer.train(BATCHES)
    if trainer.pipeline is not None:
        trainer.pipeline.validate()
    return backend, model, [r.loss for r in results]


def _bitwise_identical(reference, candidate) -> bool:
    ref_backend, ref_model, ref_losses = reference
    cand_backend, cand_model, cand_losses = candidate
    ref_state = ref_backend.state_snapshot()
    cand_state = cand_backend.state_snapshot()
    if set(ref_state) != set(cand_state) or ref_losses != cand_losses:
        return False
    if any(
        not np.array_equal(ref_state[key], cand_state[key]) for key in ref_state
    ):
        return False
    return all(
        np.array_equal(a, b)
        for a, b in zip(ref_model.dense_state(), cand_model.dense_state())
    )


# --- simulated (throughput) half ----------------------------------------


def _check(metrics: dict, params: dict) -> list:
    # The >= 1.3x floor is claimed at the default (2 GB-eq) cache.
    floor = params["lookahead"] >= 2 and params["cache_mb"] == 2048
    return failures(
        (metrics["identical"],
         "pipelined weights diverged from the serial protocol"),
        (not floor or metrics["speedup"] >= 1.3,
         f"speedup {metrics['speedup']:.3f}x below the 1.3x acceptance floor"),
        (params["fault_rate"] == 0 or metrics["faults_injected"] > 0,
         "the faulty wire injected no fault"),
    )


_CELL = "L={lookahead} cache={cache_mb:.0f} faults={fault_rate:.0%}"


@register(
    "prefetch",
    params=[
        Param("lookahead", "int", 2, help="prefetch window depth (batches)"),
        Param("cache_mb", "float", 2048.0, help="paper-equivalent cache size"),
        Param("workers", "int", 16),
        Param("iterations", "int", 80),
        Param("fault_rate", "float", 0.05, help="remote wire fault rate"),
        Param("seed", "int", 7),
    ],
    smoke={"iterations": 40},
    headline={
        # SimClock-driven: the speedup is deterministic, gate it tightly.
        "speedup": Headline(direction="higher", max_regression=0.05),
        "identical": Headline(),
    },
    check=_check,
    along=("lookahead", "cache_mb", "fault_rate"),
    refs=[
        Ref("speedup", _CELL + " speedup", "{:.3f}x", paper=">=1.3x at L>=2"),
        Ref("demand_requests", "  demand pulls", "{}"),
        Ref("prefetch_requests", "  prefetched pulls", "{}"),
        Ref("peak_prefetch_pull", "  largest prefetch pull", "{}"),
        Ref("identical", "  pipelined RPC vs serial bits", "{}", paper="True"),
        Ref("faults_injected", "  wire faults injected", "{}"),
    ],
)
def entry(*, lookahead, cache_mb, workers, iterations, fault_rate, seed):
    """Lookahead prefetch: simulated epoch speedup at one depth and
    cache size, plus the bit-identicality of the pipelined RPC path."""
    cache = DEFAULT_PROFILE.cache_config(paper_mb=cache_mb)
    serial = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iterations, cache=cache
    )
    tracer = Tracer()
    pipelined = simulate_epoch(
        SystemKind.PMEM_OE, workers, iterations=iterations, cache=cache,
        prefetch=PrefetchConfig(lookahead=lookahead), tracer=tracer,
    )
    reference = _train_functional("local", seed, None)
    candidate = _train_functional(
        "remote", seed, PrefetchConfig(lookahead=lookahead), fault_rate
    )
    return {
        "speedup": serial.sim_seconds / pipelined.sim_seconds,
        "identical": _bitwise_identical(reference, candidate),
        "faults_injected": candidate[0].reliability().faults_injected,
        "demand_requests": pipelined.total_requests,
        "prefetch_requests": pipelined.prefetch_requests,
        # Most keys pulled ahead inside one iteration's overlap slot:
        # the window fill, which grows with the lookahead depth.
        "peak_prefetch_pull": max(
            (span.attrs["keys"] for span in tracer.spans_named("prefetch.pull")),
            default=0,
        ),
    }
