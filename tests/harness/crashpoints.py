"""Deterministic crash-point harness for live shard migration.

The migration protocol in :mod:`repro.core.migration` labels every step
(:data:`~repro.core.migration.MIGRATION_STEPS`). This harness arms a
:class:`CrashPointScheduler` on one label, trains a deterministic
workload, kills the whole cluster exactly there, recovers with
:func:`~repro.core.migration.recover_elastic`, finishes the interrupted
reshard if the recovered ring is still pre-migration, replays the lost
batches, and finally compares the cluster bitwise against an
**unsharded reference replay** (one PS node, same seed, every batch
applied exactly once).

Because every PS operation is deterministic — weights initialize from
``(seed, key)``, gradients from ``(seed, batch)``, the optimizer is a
pure function of each key's gradient sequence — a single lost or
double-applied push would change the final bits. Bitwise equality is
therefore exactly the "no lost or duplicated update" property the
crash-point sweep (``tests/test_migration_crashpoints.py``) asserts,
at every step of the protocol, for scale-out and scale-in, over the
in-process and the (optionally fault-injected) RPC transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (
    CacheConfig,
    NetworkFaultConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.migration import (
    MIGRATION_STEPS,
    MigrationReport,
    ShardMigrator,
    recover_elastic,
)
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.network.frontend import RemotePSClient

DIM = 8
NUM_KEYS = 96
BATCH_KEYS = 12
RING_VNODES = 32

#: Same lossy wire the RPC equivalence tests use.
FAULTS = NetworkFaultConfig(
    drop_rate=0.05, duplicate_rate=0.03, corrupt_rate=0.02, seed=5
)
RETRY = RetryConfig(
    max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=5
)


class InjectedCrash(Exception):
    """Raised by :class:`CrashPointScheduler` at the armed step."""


class CrashPointScheduler:
    """``on_step`` hook that kills the migration at one labelled step.

    The hook fires *before* the step's actions run, so crashing at
    ``commit`` leaves the old ring durable while crashing at ``cleanup``
    leaves the new one — both sides of the atomic commit point are
    exercised. Every label seen is recorded, which lets the sweep prove
    it covered 100 % of :data:`MIGRATION_STEPS`.
    """

    def __init__(self, crash_at: str | None = None):
        if crash_at is not None and crash_at not in MIGRATION_STEPS:
            raise ValueError(
                f"unknown migration step {crash_at!r}; "
                f"expected one of {MIGRATION_STEPS}"
            )
        self.crash_at = crash_at
        self.steps_seen: list[str] = []

    def __call__(self, label: str) -> None:
        self.steps_seen.append(label)
        if label == self.crash_at:
            raise InjectedCrash(label)


# ----------------------------------------------------------------------
# deterministic workload
# ----------------------------------------------------------------------


def batch_payload(seed: int, batch: int) -> tuple[list[int], np.ndarray]:
    """Keys and gradients of global batch ``batch`` — a pure function of
    ``(seed, batch)`` so a post-recovery replay regenerates the exact
    pushes the crash discarded."""
    rng = np.random.default_rng((seed, batch))
    keys = sorted(rng.choice(NUM_KEYS, size=BATCH_KEYS, replace=False).tolist())
    grads = rng.normal(0, 0.1, (BATCH_KEYS, DIM)).astype(np.float32)
    return keys, grads


def server_config(num_nodes: int, seed: int) -> ServerConfig:
    return ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        partitioner="ring",
        ring_vnodes=RING_VNODES,
        seed=seed,
    )


def cache_config() -> CacheConfig:
    # Small enough that flushes and evictions actually happen.
    return CacheConfig(capacity_bytes=32 * DIM * 4)


def reference_state(seed: int, total_batches: int) -> dict[int, np.ndarray]:
    """Final weights of an unsharded replay: ONE node, modulo routing,
    every batch applied exactly once, no crash, no migration."""
    config = ServerConfig(
        num_nodes=1,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        seed=seed,
    )
    server = OpenEmbeddingServer(config, cache_config(), PSAdagrad(lr=0.05))
    for batch in range(total_batches):
        keys, grads = batch_payload(seed, batch)
        server.pull(keys, batch)
        server.maintain(batch)
        server.push(keys, grads, batch)
    return server.state_snapshot()


# ----------------------------------------------------------------------
# scenario driver
# ----------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything a crash-point scenario observed, for assertions."""

    direction: str
    crash_at: str | None
    crashed: bool
    retried_migration: bool
    recovered_epoch: int | None
    purged_keys: int | None
    steps_seen: list[str]
    #: ``global_completed_checkpoint`` observed after every batch, after
    #: recovery, and after the final barrier — must be non-decreasing.
    checkpoint_trail: list[int]
    final_state: dict[int, np.ndarray]
    reference: dict[int, np.ndarray]
    backend: object
    report: MigrationReport | None


def run_crashpoint_scenario(
    direction: str,
    crash_at: str | None,
    *,
    remote: bool = False,
    faulty: bool = False,
    seed: int = 0,
    nodes: int = 3,
    batches_before: int = 5,
    batches_after: int = 4,
    checkpoint_every: int = 2,
) -> ScenarioResult:
    """Train, crash the cluster at ``crash_at`` mid-``direction``,
    recover, finish the job, and return everything observed.

    Schedule: batches ``0..batches_before-1`` -> reshard (killed at
    ``crash_at``; ``None`` disables the crash) -> recovery + lost-batch
    replay + reshard retry if the committed ring was still the old one
    -> batches ``batches_before..end``. The reference replay sees each
    batch exactly once, so the scenario's final state must match it
    bitwise whatever happened in the middle.
    """
    if direction not in ("scale_out", "scale_in"):
        raise ValueError(f"unknown direction {direction!r}")
    total = batches_before + batches_after
    config = server_config(nodes, seed)
    if remote:
        backend = RemotePSClient(
            config,
            cache_config(),
            PSAdagrad(lr=0.05),
            faults=FAULTS if faulty else None,
            retry=RETRY if faulty else None,
        )
    else:
        if faulty:
            raise ValueError("fault injection needs the remote backend")
        backend = OpenEmbeddingServer(config, cache_config(), PSAdagrad(lr=0.05))
    trail: list[int] = []

    def train(first: int, last: int) -> None:
        """Run global batches ``first..last-1`` (checkpoint cadence is a
        function of the batch id, so replays re-fire identically)."""
        for batch in range(first, last):
            keys, grads = batch_payload(seed, batch)
            backend.pull(keys, batch)
            backend.maintain(batch)
            backend.push(keys, grads, batch)
            if (batch + 1) % checkpoint_every == 0:
                backend.barrier_checkpoint(batch)
            trail.append(backend.global_completed_checkpoint)

    train(0, batches_before)

    scheduler = CrashPointScheduler(crash_at)
    migrator = ShardMigrator(backend, on_step=scheduler)
    run = migrator.scale_out if direction == "scale_out" else migrator.scale_in
    crashed = False
    retried = False
    recovered_epoch: int | None = None
    purged: int | None = None
    report: MigrationReport | None = None
    try:
        report = run()
    except InjectedCrash:
        crashed = True
        pools = migrator.crash()
        backend, __, purged = recover_elastic(
            pools, config, cache_config(), PSAdagrad(lr=0.05)
        )
        recovered_epoch = backend.ring_epoch
        trail.append(backend.global_completed_checkpoint)
        # Replay whatever the rollback discarded (usually nothing: the
        # migration barrier checkpointed the newest batch first).
        train(backend.global_completed_checkpoint + 1, batches_before)
        target = nodes + 1 if direction == "scale_out" else nodes - 1
        if backend.server_config.num_nodes != target:
            # Crash landed before the commit point: the durable ring is
            # still the old one, so the reshard simply runs again.
            retried = True
            retry_migrator = ShardMigrator(backend)
            report = (
                retry_migrator.scale_out()
                if direction == "scale_out"
                else retry_migrator.scale_in()
            )
        trail.append(backend.global_completed_checkpoint)

    train(batches_before, total)
    if backend.global_completed_checkpoint < total - 1:
        backend.barrier_checkpoint(total - 1)
    trail.append(backend.global_completed_checkpoint)
    return ScenarioResult(
        direction=direction,
        crash_at=crash_at,
        crashed=crashed,
        retried_migration=retried,
        recovered_epoch=recovered_epoch,
        purged_keys=purged,
        steps_seen=scheduler.steps_seen,
        checkpoint_trail=trail,
        final_state=backend.state_snapshot(),
        reference=reference_state(seed, total),
        backend=backend,
        report=report,
    )


# ----------------------------------------------------------------------
# assertions
# ----------------------------------------------------------------------


def assert_bitwise_equal(
    state: dict[int, np.ndarray], reference: dict[int, np.ndarray]
) -> None:
    """Every key present, every weight bit-identical — the no-lost /
    no-duplicated-update property in one comparison."""
    assert set(state) == set(reference), (
        f"key sets differ: extra={sorted(set(state) - set(reference))[:5]} "
        f"missing={sorted(set(reference) - set(state))[:5]}"
    )
    for key in reference:
        np.testing.assert_array_equal(
            state[key], reference[key], err_msg=f"weights diverged on key {key}"
        )


def assert_monotone_checkpoints(trail: list[int]) -> None:
    """Checkpointed Batch ID never moves backwards, across crash and
    recovery included."""
    for before, after in zip(trail, trail[1:]):
        assert after >= before, f"checkpoint id regressed: {before} -> {after}"


def assert_exclusive_ownership(backend) -> None:
    """Every resident key lives on exactly the shard the committed
    partitioner routes it to (no dual-ownership leftovers)."""
    for node in backend.nodes:
        keys = node.owned_keys()
        owners = backend.partitioner.owners(keys)
        stray = owners != node.node_id
        assert not stray.any(), (
            f"key {keys[stray][0]} resident on node {node.node_id} "
            f"but routed to {owners[stray][0]}"
        )
