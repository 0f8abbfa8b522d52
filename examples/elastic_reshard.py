"""Elastic reshard demo: live scale-out/in + crash mid-migration.

A 3-node PS cluster (every cluster routes by jump consistent hash, so
any can scale) trains a deterministic workload,
then — without stopping the job —

1. **scales out** to 4 nodes (only ~1/4 of resident keys move, each
   straight onto the new node),
2. keeps training,
3. starts **scaling back in** to 3 nodes and is **killed mid-transfer**
   (the crash-point hook fires inside the copy loop),
4. recovers from the surviving PMem pools with
   ``OpenEmbeddingServer.recover`` — the committed ring word says the
   migration never happened, so the recovered cluster is back on 4
   nodes and simply runs the reshard again,
5. finishes training.

The punchline: the final weights are **bitwise identical** to an
unsharded single-node replay that saw each batch exactly once. Since
weights initialize from ``(seed, key)`` and gradients from
``(seed, batch)``, one lost or double-applied push anywhere in steps
1-5 would change the bits. See docs/ELASTICITY.md for the protocol.

Run:  python examples/elastic_reshard.py
"""

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.migration import ShardMigrator
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer

DIM = 8
NUM_KEYS = 120
BATCH_KEYS = 16
TOTAL_BATCHES = 12
SCALE_OUT_AFTER = 5  # batches trained before the live scale-out
SCALE_IN_AFTER = 9   # batches trained before the (crashy) scale-in
SEED = 7

CACHE = CacheConfig(capacity_bytes=48 * DIM * 4)


class KilledMidTransfer(Exception):
    pass


def crash_at_mid_transfer(label: str) -> None:
    """on_step hook: kill the whole cluster halfway through the copy."""
    print(f"    migration step: {label}")
    if label == "mid_transfer":
        raise KilledMidTransfer


def batch_payload(batch: int) -> tuple[list[int], np.ndarray]:
    """Keys + gradients as a pure function of the batch id, so the
    post-recovery replay regenerates exactly the pushes that were
    rolled back."""
    rng = np.random.default_rng((SEED, batch))
    keys = sorted(rng.choice(NUM_KEYS, size=BATCH_KEYS, replace=False).tolist())
    grads = rng.normal(0, 0.1, (BATCH_KEYS, DIM)).astype(np.float32)
    return keys, grads


def train(server, first: int, last: int) -> None:
    for batch in range(first, last):
        keys, grads = batch_payload(batch)
        server.pull(keys, batch)
        server.maintain(batch)
        server.push(keys, grads, batch)


def reference_state() -> dict[int, np.ndarray]:
    """One node, no reshard, no crash."""
    server = OpenEmbeddingServer(
        ServerConfig(
            num_nodes=1, embedding_dim=DIM,
            pmem_capacity_bytes=1 << 26, seed=SEED,
        ),
        CACHE,
        PSAdagrad(lr=0.05),
    )
    train(server, 0, TOTAL_BATCHES)
    return server.state_snapshot()


def main() -> None:
    config = ServerConfig(
        num_nodes=3,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        seed=SEED,
    )
    server = OpenEmbeddingServer(config, CACHE, PSAdagrad(lr=0.05))

    print(f"training batches 0..{SCALE_OUT_AFTER - 1} on 3 nodes ...")
    train(server, 0, SCALE_OUT_AFTER)

    print("\nlive scale-out 3 -> 4 (training stays online):")
    report = ShardMigrator(server).scale_out()
    print(
        f"  moved {report.keys_moved}/{report.keys_total} resident keys "
        f"({report.moved_fraction:.1%}; a full modulo remap would move ~75%), "
        f"ring epoch now {server.ring_epoch}"
    )

    print(f"\ntraining batches {SCALE_OUT_AFTER}..{SCALE_IN_AFTER - 1} "
          f"on 4 nodes ...")
    train(server, SCALE_OUT_AFTER, SCALE_IN_AFTER)

    print("\nscale-in 4 -> 3, but the cluster dies mid-transfer:")
    migrator = ShardMigrator(server, on_step=crash_at_mid_transfer)
    try:
        migrator.scale_in()
    except KilledMidTransfer:
        print("  << power cut: every DRAM structure is gone >>")

    pools = migrator.crash()  # only the PMem pools survive
    server, reports = OpenEmbeddingServer.recover(
        pools, config, CACHE, PSAdagrad(lr=0.05)
    )
    print(
        f"  recovered {len(reports)} shards onto the committed ring "
        f"(epoch {server.ring_epoch}, {server.server_config.num_nodes} nodes), "
        f"every key on its one owner"
    )

    # The crash landed before the atomic commit, so the durable ring is
    # still the 4-node one. Replay whatever the rollback discarded, then
    # just run the reshard again — the barrier is idempotent and
    # re-delivery of already-copied keys is harmless.
    resume_from = server.global_completed_checkpoint + 1
    if resume_from < SCALE_IN_AFTER:
        print(f"  replaying rolled-back batches {resume_from}.."
              f"{SCALE_IN_AFTER - 1} ...")
        train(server, resume_from, SCALE_IN_AFTER)
    print("  retrying the interrupted scale-in:")
    report = ShardMigrator(server).scale_in()
    print(
        f"  moved {report.keys_moved}/{report.keys_total} keys "
        f"({report.moved_fraction:.1%}), back to "
        f"{server.server_config.num_nodes} nodes, epoch {server.ring_epoch}"
    )

    print(f"\ntraining batches {SCALE_IN_AFTER}..{TOTAL_BATCHES - 1} ...")
    train(server, SCALE_IN_AFTER, TOTAL_BATCHES)

    print("\ncomparing against an unsharded single-node replay ...")
    final = server.state_snapshot()
    reference = reference_state()
    assert set(final) == set(reference)
    identical = all(np.array_equal(final[k], reference[k]) for k in reference)
    assert identical, "weights diverged — an update was lost or duplicated"
    print(
        f"  {len(final)} embeddings, scale-out + crash + recovery + "
        f"scale-in later: bitwise identical = {identical}"
    )


if __name__ == "__main__":
    main()
