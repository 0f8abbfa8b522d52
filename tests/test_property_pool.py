"""Property-based durability model for the pool's slab (hypothesis).

A reference model tracks what every live slot SHOULD hold after any
sequence of block writes, in-place rewrites, frees and crashes; the
slab's live slots, their rows and the pool's space accounting must
agree exactly at every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem.pool import PmemPool

SLOT = 8  # bytes: two floats


def operations():
    write = st.tuples(st.just("write"), st.lists(st.integers(0, 100), min_size=1, max_size=5))
    rewrite = st.tuples(st.just("rewrite"), st.lists(st.integers(0, 100), min_size=1, max_size=5))
    free = st.tuples(st.just("free"), st.lists(st.integers(0, 100), min_size=1, max_size=5))
    crash = st.tuples(st.just("crash"), st.just([]))
    return st.lists(st.one_of(write, rewrite, free, crash), min_size=1, max_size=40)


@given(ops=operations())
@settings(max_examples=120, deadline=None)
def test_pool_matches_reference_model(ops):
    pool = PmemPool(1 << 16)
    slab = pool.slab(SLOT)
    reference: dict[int, float] = {}  # live slot -> value of its row
    for op, values in ops:
        held = sorted(reference)
        if op == "write":
            n = len(values)
            block = np.repeat(np.array(values, np.float32)[:, None], 2, axis=1)
            slots = slab.write(np.arange(n, dtype=np.uint64), np.zeros(n, np.int64), block)
            assert not set(slots.tolist()) & set(held)  # never a live slot
            reference.update(zip(slots.tolist(), values))
        elif op == "rewrite" and held:
            slots = np.unique([held[v % len(held)] for v in values])
            block = np.full((len(slots), 2), values[0], np.float32)
            slab.rewrite(slots, np.ones(len(slots), np.int64), block)
            reference.update(dict.fromkeys(slots.tolist(), values[0]))
        elif op == "free" and held:
            slots = np.unique([held[v % len(held)] for v in values])
            slab.free(slots)
            for slot in slots.tolist():
                del reference[slot]
        elif op == "crash":
            pool.crash()
        # Invariant: live contents and space match the oracle at every step.
        live = np.flatnonzero(slab.live)
        assert live.tolist() == sorted(reference)
        assert slab.read(live)[:, 0].tolist() == [reference[slot] for slot in live.tolist()]
        assert pool.used_bytes == SLOT * len(reference) == SLOT * len(pool)
