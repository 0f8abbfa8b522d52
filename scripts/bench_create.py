"""Block vs per-key cost of the key-seeded initializer.

Prints the microseconds ``repro.core.initializer.key_seeded_rows`` takes
for n = 1, 4, 16, 64 and 8192 keys under each of its two evaluations —
numpy's generator built once per key, and the array form — so that
``block_min(dim)``, the size at which the function switches from the
first to the second, is reproducible rather than asserted:

    PYTHONPATH=src python scripts/bench_create.py [--dim 16] [--repeats 7]

The array form's fixed cost is per output word, so the crossing moves
with ``--dim``; ``block_min`` belongs near the n where the two columns
cross at every dim, and ``as shipped`` is what callers get.
"""

import argparse
import time

import numpy as np

from repro.core import initializer

SIZES = (1, 4, 16, 64, 8192)


def best_us(keys: np.ndarray, dim: int, repeats: int) -> float:
    """Best-of-``repeats`` time of one call, in microseconds."""
    calls = max(1, 2000 // len(keys))
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        for __ in range(calls):
            initializer.key_seeded_rows(1, keys, 0.01, dim)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    shipped = initializer._KEYS_PER_STEP
    print(
        f"key_seeded_rows, dim {args.dim}, block_min = {initializer.block_min(args.dim)} "
        f"(us per call, best of {args.repeats})"
    )
    print(f"{'n':>6} {'per-key':>10} {'block':>10} {'per-key/block':>14} {'as shipped':>11}")
    rng = np.random.default_rng(0)
    for n in SIZES:
        keys = rng.integers(0, 2**32, n, dtype=np.uint64)
        times = {}
        for form, keys_per_step in (("per-key", 2**63), ("block", 0), ("shipped", shipped)):
            initializer._KEYS_PER_STEP = keys_per_step
            times[form] = best_us(keys, args.dim, args.repeats)
        initializer._KEYS_PER_STEP = shipped
        print(
            f"{n:>6} {times['per-key']:>10.1f} {times['block']:>10.1f} "
            f"{times['per-key'] / times['block']:>13.2f}x {times['shipped']:>11.1f}"
        )


if __name__ == "__main__":
    main()
