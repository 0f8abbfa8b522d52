"""Crash recovery (Section V-C).

*"the recovery can be done by (1) scanning all the embedding entries in
PMem and discarding those with batch IDs larger than the Checkpointed
Batch ID, (2) and then reconstruct the hash index in DRAM."*

:func:`recover_node` takes a surviving :class:`PmemPool` (what a node
process leaves behind) and produces a fresh :class:`PSNode` whose live
state is exactly the last completed checkpoint: one sweep over the slab's
slot headers (``discard_newer_than``), one scan that relinks the version
chains and names every key's head (``rebuild_from_pool``), one block
insert into the node's only key map (``adopt_many``). It also returns a
:class:`RecoveryReport` with the simulated recovery time, modelled as a
sequential PMem scan of every stored version plus per-entry index
rebuild cost — the two components the paper says dominate (Section
VI-E). Sharded recovery divides both by the parallelism, the paper's
suggested speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheConfig, ServerConfig
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSOptimizer
from repro.errors import RecoveryError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pmem.pool import PmemPool
from repro.simulation.calibration import Calibration, DEFAULT_CALIBRATION
from repro.simulation.device import PMEM_SPEC


@dataclass(frozen=True)
class RecoveryReport:
    """What a node recovery did and how long it (simulated-)took."""

    node_id: int
    checkpoint_batch_id: int
    entries_recovered: int
    versions_scanned: int
    versions_discarded: int
    sim_seconds: float


def recover_node(
    pool: PmemPool,
    server_config: ServerConfig,
    cache_config: CacheConfig | None = None,
    optimizer: PSOptimizer | None = None,
    *,
    node_id: int = 0,
    target_batch_id: int | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    parallelism: int = 1,
    cluster_mode: bool = False,
    tracer: Tracer | None = None,
) -> tuple[PSNode, RecoveryReport]:
    """Rebuild a PS node from a crashed pool.

    Args:
        pool: the surviving persistent pool (after ``PSNode.crash``).
        target_batch_id: recover to this checkpoint instead of the
            node's own last completed one — the distributed server
            passes the cluster-wide minimum here so all shards restore
            the same batch.
        parallelism: partitions scanning/rebuilding in parallel
            (Section VI-E's "partition a single embedding table into
            several parameter server processes").
        tracer: emits a ``recovery.node`` span covering the simulated
            scan+rebuild time; also handed to the recovered node.

    Returns:
        ``(node, report)`` — the node starts with an empty, consistent
        DRAM cache; all recovered entries are PMem-resident.

    Raises:
        RecoveryError: no checkpoint was ever completed, or the target
            batch id exceeds what this pool durably holds.
    """
    if parallelism < 1:
        raise RecoveryError(f"parallelism must be >= 1, got {parallelism}")
    tracer = tracer if tracer is not None else NULL_TRACER
    node = PSNode(
        node_id,
        server_config,
        cache_config,
        optimizer,
        pool=pool,
        cluster_mode=cluster_mode,
        tracer=tracer,
    )
    store = node.store

    # Step 0: establish the recovery target.
    versions_scanned = store.total_versions()
    own_checkpoint = store.checkpointed_batch_id()
    if own_checkpoint < 0:
        raise RecoveryError("no completed checkpoint recorded in PMem root")
    checkpoint_id = own_checkpoint if target_batch_id is None else target_batch_id
    if checkpoint_id > own_checkpoint:
        raise RecoveryError(
            f"target checkpoint {checkpoint_id} newer than durable {own_checkpoint}"
        )

    # Step 1: scan PMem, discarding versions newer than the checkpoint.
    discarded = store.discard_newer_than(checkpoint_id)

    # Step 2: reconstruct the DRAM hash index — the node's one key map —
    # from the slot headers that survive: one block insert, every entry
    # PMem-resident at its newest surviving version, its slot carrying
    # that version's PMem address (the DRAM cache refills as training
    # resumes).
    keys, heads, versions = store.rebuild_from_pool()
    node.cache.adopt_many(keys, versions, heads)

    # The node resumes from the checkpoint; its coordinator state must
    # agree with what is durable.
    node.coordinator.last_completed = checkpoint_id
    store.set_checkpointed_batch_id(checkpoint_id)
    node.coordinator._sync_barriers()
    node.latest_completed_batch = checkpoint_id

    sim_seconds = estimate_recovery_seconds(
        entries=len(keys),
        versions=versions_scanned,
        entry_bytes=store.entry_bytes,
        calibration=calibration,
        parallelism=parallelism,
    )
    report = RecoveryReport(
        node_id=node_id,
        checkpoint_batch_id=checkpoint_id,
        entries_recovered=len(keys),
        versions_scanned=versions_scanned,
        versions_discarded=discarded,
        sim_seconds=sim_seconds,
    )
    # The span covers the *simulated* recovery window on the recovery
    # track, so traces show how long the shard was dark (Figure 14).
    tracer.add_span(
        "recovery.node",
        start=tracer.now(),
        duration=sim_seconds,
        track="recovery",
        node=node_id,
        checkpoint=checkpoint_id,
        entries=len(keys),
        discarded=discarded,
    )
    return node, report


def estimate_recovery_seconds(
    *,
    entries: int,
    versions: int,
    entry_bytes: int,
    calibration: Calibration = DEFAULT_CALIBRATION,
    parallelism: int = 1,
) -> float:
    """Simulated PMem-OE recovery time (Figure 14's right bar).

    Sequential scan of every stored version at PMem read bandwidth plus
    per-entry index reconstruction, divided by shard parallelism.
    """
    scan = versions * entry_bytes / PMEM_SPEC.read_bw
    rebuild = entries * calibration.index_rebuild_pmem_oe_s
    return (scan + rebuild) / parallelism


def estimate_dram_ps_recovery_seconds(
    *,
    entries: int,
    entry_bytes: int,
    checkpoint_device: str = "pmem",
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """Simulated DRAM-PS recovery time (Figure 14's left two bars).

    DRAM-PS must read the whole checkpoint file back from persistent
    storage and insert every entry into a fresh DRAM hash; the read
    dominates on slow devices, the inserts on fast ones.

    Args:
        checkpoint_device: ``"pmem"`` (39 GB/s) or ``"ssd"`` (the
            calibrated ~0.65 GB/s effective NAS/SSD read path).
    """
    if checkpoint_device == "pmem":
        read_bw = PMEM_SPEC.read_bw
    elif checkpoint_device == "ssd":
        read_bw = calibration.checkpoint_ssd_read_bw
    else:
        raise RecoveryError(f"unknown checkpoint device {checkpoint_device!r}")
    read = entries * entry_bytes / read_bw
    insert = entries * calibration.index_insert_dram_ps_s
    return read + insert
