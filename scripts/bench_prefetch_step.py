"""Wall-clock ms per ``SynchronousTrainer`` step, serial vs ``lookahead=2``.

The lookahead pipeline exists to take pulls off the critical path; this
prints what it costs or saves in the trainer's own wall time (in-process
server, 4 workers x 64 samples, 26 fields, dim 16, a cache that holds
every row, so PS work is all-hit and the pipeline's own bookkeeping is
what differs):

    PYTHONPATH=src python scripts/bench_prefetch_step.py [--steps 30] [--repeats 5]

Printed by CI next to the divergence check, not gated: wall clock on a
shared runner drifts too much to hold a bound.
"""

import argparse
import time

from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer

WORKERS, BATCH, FIELDS, DIM, WARMUP = 4, 64, 26, 16, 5


def ms_per_step(prefetch: PrefetchConfig | None, steps: int) -> float:
    trainer = SynchronousTrainer(
        OpenEmbeddingServer(
            ServerConfig(num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 28),
            CacheConfig(capacity_bytes=64 << 20),
            PSAdagrad(lr=0.05),
        ),
        DeepFM(FIELDS, DIM, hidden=(64, 32), use_first_order=False, seed=1),
        CriteoSynthetic(num_fields=FIELDS, vocab_per_field=1000, seed=2),
        num_workers=WORKERS,
        batch_size=BATCH,
        dense_optimizer=Adam(1e-3),
        prefetch=prefetch,
    )
    trainer.train(WARMUP)
    start = time.perf_counter()
    trainer.train(steps)
    return (time.perf_counter() - start) / steps * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    modes = {"serial": None, "lookahead=2": PrefetchConfig(lookahead=2)}
    # interleaved, best-of: the two modes see the same machine weather
    best = {name: float("inf") for name in modes}
    for __ in range(args.repeats):
        for name, prefetch in modes.items():
            best[name] = min(best[name], ms_per_step(prefetch, args.steps))
    print(
        f"SynchronousTrainer step, {WORKERS} x {BATCH} samples, {FIELDS} fields, "
        f"dim {DIM} (wall ms, best of {args.repeats})"
    )
    for name, value in best.items():
        print(f"  {name:<12} {value:8.2f} ms/step")


if __name__ == "__main__":
    main()
