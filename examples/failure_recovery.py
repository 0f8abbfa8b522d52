"""Failure-recovery demo: crash mid-training, recover, prove equality.

Trains the same model twice:

* an **uninterrupted** reference run, and
* a run that is **killed** partway through, recovered from the
  batch-aware checkpoint in (simulated) PMem, and resumed.

Because the batch-aware checkpoint restores the exact state of the
checkpointed batch and the dataset is deterministic by batch id, the
two final models are bitwise identical — the property Section V-C's
recovery design exists to provide.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer

FIELDS, DIM = 8, 16
TOTAL_BATCHES = 120
CRASH_AT = 75

SERVER_CONFIG = ServerConfig(
    num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 28, seed=21
)
CACHE_CONFIG = CacheConfig(capacity_bytes=64 << 10)


def build_trainer(dataset: CriteoSynthetic) -> SynchronousTrainer:
    server = OpenEmbeddingServer(SERVER_CONFIG, CACHE_CONFIG, PSAdagrad(lr=0.08))
    model = DeepFM(FIELDS, DIM, hidden=(32,), use_first_order=False, seed=21)
    return SynchronousTrainer(
        server,
        model,
        dataset,
        num_workers=4,
        batch_size=32,
        dense_optimizer=Adam(2e-3),
        checkpoint_every=20,  # periodic checkpoint thread
    )


def main() -> None:
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=400, seed=9)

    print(f"reference run: {TOTAL_BATCHES} batches, no failures ...")
    reference = build_trainer(dataset)
    reference.train(TOTAL_BATCHES)
    ref_state = reference.backend.state_snapshot()

    print(f"failure run: killing the cluster after batch {CRASH_AT} ...")
    victim = build_trainer(dataset)
    victim.train(CRASH_AT)
    pools, __, dense_checkpoints = victim.crash()

    model = DeepFM(FIELDS, DIM, hidden=(32,), use_first_order=False, seed=21)
    recovered = SynchronousTrainer.recover(
        pools,
        dense_checkpoints,
        model=model,
        dataset=dataset,
        server_config=SERVER_CONFIG,
        cache_config=CACHE_CONFIG,
        ps_optimizer=PSAdagrad(lr=0.08),
        num_workers=4,
        batch_size=32,
        dense_optimizer=Adam(2e-3),
        checkpoint_every=20,
    )
    checkpoint = recovered.next_batch - 1
    lost = CRASH_AT - recovered.next_batch
    print(f"  recovered to checkpoint of batch {checkpoint} "
          f"(re-training {lost} lost batches)")
    recovered.train(TOTAL_BATCHES - recovered.next_batch)

    got_state = recovered.backend.state_snapshot()
    mismatched = sum(
        0 if np.array_equal(got_state[key], ref_state[key]) else 1
        for key in ref_state
    )
    print(f"  final embedding entries: {len(got_state)}; "
          f"mismatched vs reference: {mismatched}")
    dense_equal = all(
        np.array_equal(a, b)
        for a, b in zip(reference.model.dense_state(), recovered.model.dense_state())
    )
    print(f"  dense (MLP) weights identical: {dense_equal}")
    assert mismatched == 0 and dense_equal
    print("crash + recover + resume reproduced the uninterrupted run exactly.")


if __name__ == "__main__":
    main()
