"""Old vs new form of every kernel the sync step's contiguous swap touched.

Each row times one idiom in its previous form and in the form the code
now uses, at the shapes of one ``sync_hot`` step (a 256-sample batch of
26 fields at dim 16: ~5 200 distinct keys, ~2 600 per shard of two, rows
of weights + Adagrad state), and says whether the two give the same
bytes:

    PYTHONPATH=src python scripts/bench_kernels.py [--repeats 7]

Microseconds per call, best of ``--repeats``; a wall clock, so compare
the columns of one run, not runs on different machines.
"""

import argparse
import timeit

import numpy as np

from repro.core.optimizers import PSAdagrad
from repro.dlrm.layers import field_sum

BATCH, FIELDS, DIM = 256, 26, 16
SHARD_ROWS, SHARD_KEYS, STEP_KEYS = 26_000, 2_608, 5_216


def best_us(fn, repeats: int) -> float:
    """Best-of-``repeats`` time of one call, in microseconds."""
    calls = 50
    return min(timeit.repeat(fn, number=calls, repeat=repeats)) / calls * 1e6


def kernels(rng: np.random.Generator):
    """``(name, old, new)``: two calls returning the bytes they made."""
    arena = rng.standard_normal((SHARD_ROWS, 2 * DIM)).astype(np.float32)
    arena[:, DIM:] = rng.random((SHARD_ROWS, DIM)) + 0.1  # Adagrad accumulators
    rows = np.sort(rng.choice(SHARD_ROWS, SHARD_KEYS, replace=False))
    grads = (rng.standard_normal((SHARD_KEYS, DIM)) * 0.1).astype(np.float32)
    step_grads = rng.standard_normal((BATCH * FIELDS, DIM)).astype(np.float32)
    starts = np.sort(rng.choice(BATCH * FIELDS, STEP_KEYS, replace=False))
    summed = step_grads[starts]
    positions = np.sort(rng.choice(STEP_KEYS, SHARD_KEYS, replace=False))
    embeddings = rng.standard_normal((BATCH, FIELDS, DIM)).astype(np.float32)
    factor = rng.normal(0.0, 0.35, (FIELDS * 2000, 4))
    keys = rng.integers(0, FIELDS * 2000, (BATCH, FIELDS))
    factors = factor[keys]
    optimizer = PSAdagrad(0.05)

    def adagrad_strided():
        block = arena[rows]
        optimizer.apply_batch(block[:, :DIM], block[:, DIM:], grads)
        return block

    def adagrad_contiguous():
        block = np.take(arena, rows, axis=0)
        weights, state = block[:, :DIM].copy(), block[:, DIM:].copy()
        optimizer.apply_batch(weights, state, grads)
        return np.concatenate([weights, state], axis=1)

    return [
        ("arena row gather (cache.update, flush_slots)",
         lambda: arena[rows], lambda: np.take(arena, rows, axis=0)),
        ("adagrad on a shard's push rows (gather + apply)", adagrad_strided, adagrad_contiguous),
        ("a shard's summed rows (facade push)",
         lambda: summed[positions], lambda: np.take(summed, positions, axis=0)),
        ("seed rows of segment_sum (facade push)",
         lambda: step_grads[starts], lambda: np.take(step_grads, starts, axis=0)),
        ("DeepFM sum_v over fields (B, F, D)",
         lambda: embeddings.sum(axis=1), lambda: field_sum(embeddings)),
        ("DeepFM sum_sq over fields",
         lambda: (embeddings**2).sum(axis=1), lambda: field_sum(embeddings**2)),
        ("criteo factor rows (B, F, 4) f64",
         lambda: factor[keys], lambda: np.take(factor, keys, axis=0)),
        ("criteo factor sum over fields",
         lambda: factors.sum(axis=1), lambda: field_sum(factors)),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    print(f"{'kernel':<48} {'old us':>9} {'new us':>9} {'old/new':>8} {'bit-equal':>10}")
    for name, old, new in kernels(np.random.default_rng(0)):
        same = old().tobytes() == new().tobytes()
        old_us, new_us = best_us(old, args.repeats), best_us(new, args.repeats)
        print(f"{name:<48} {old_us:>9.1f} {new_us:>9.1f} {old_us / new_us:>7.2f}x {str(same):>10}")


if __name__ == "__main__":
    main()
