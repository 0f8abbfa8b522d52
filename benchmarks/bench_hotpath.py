"""Hot-path transport equivalence: one workload, three transports, same bits.

The cache's pull / maintain / update path serves every transport. This
benchmark trains the same deterministic workload (duplicate keys, a
cache far smaller than the key space, Adagrad state) against the
in-process server, the remote RPC client over a clean wire, and the RPC
client over a wire that drops, duplicates and corrupts frames, and
byte-compares every final embedding row against the in-process run.

Wall-clock speed of the hot path is not measured here: ``sync_hot`` /
``sync_miss`` in ``BENCHMARK.json`` (``benchmarks/e2e``) are the
end-to-end figures, with ``cache.pull_s`` / ``cache.maintain_s`` /
``cache.update_s`` attributed per layer.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.config import CacheConfig, NetworkFaultConfig, RetryConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.network.frontend import RemotePSClient

DIM = 8
FAULT_RATE = 0.04


def _backend(kind: str, fault_rate: float = 0.0):
    server = ServerConfig(
        num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=17
    )
    cache = CacheConfig(capacity_bytes=64 * 16 * 4 * 2)
    optimizer = PSAdagrad(lr=0.05)
    if kind == "local":
        return OpenEmbeddingServer(server, cache, optimizer)
    faults = retry = None
    if fault_rate > 0.0:
        faults = NetworkFaultConfig(
            drop_rate=fault_rate,
            duplicate_rate=fault_rate / 2,
            corrupt_rate=fault_rate / 2,
            seed=17,
        )
        retry = RetryConfig(
            max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=17
        )
    return RemotePSClient(server, cache, optimizer, faults=faults, retry=retry)


def _train_backend(backend, batches: int):
    rng = np.random.default_rng(41)
    for batch_id in range(batches):
        keys = rng.integers(0, 200, size=48).tolist()
        backend.pull(keys, batch_id)
        backend.maintain(batch_id)
        grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
        backend.push(keys, grads, batch_id)
    return backend.state_snapshot()


def transport_equivalence(batches: int = 30):
    """(label, identical?, faults_injected) per transport vs the local run."""
    reference = _train_backend(_backend("local"), batches)
    rows = []
    for label, fault_rate in (
        ("remote clean wire", 0.0),
        ("remote faulty wire", FAULT_RATE),
    ):
        backend = _backend("remote", fault_rate)
        state = _train_backend(backend, batches)
        identical = set(state) == set(reference) and all(
            np.array_equal(state[k], reference[k]) for k in reference
        )
        injected = (
            backend.reliability().faults_injected if fault_rate > 0.0 else 0
        )
        rows.append((label, identical, injected))
    return rows


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["transports_identical"],
         "a transport diverged from the in-process reference"),
    )


@register(
    "hotpath",
    params=[Param("transport_batches", "int", 30)],
    smoke={"transport_batches": 12},
    headline={"transports_identical": Headline()},
    check=_check,
    refs=[
        Ref("transports_identical", "RPC clean + faulty wire vs local", "{}",
            paper="True (same bits)"),
        Ref("faults_injected", "wire faults injected", "{}"),
    ],
)
def entry(*, transport_batches):
    """Hot path: bitwise equality of the trained embeddings across the
    in-process, RPC and fault-injected-RPC transports."""
    transports = transport_equivalence(batches=transport_batches)
    return {
        "transports_identical": all(identical for __, identical, __ in transports),
        "faults_injected": sum(injected for *__, injected in transports),
    }

