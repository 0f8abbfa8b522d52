"""The sync step's contiguous kernels change no bit.

The data generator's factor gather (``np.take``) and field sum, and
DeepFM's ``sum_v`` / ``sum_sq`` (``einsum``), replaced forms that are
several times slower. Their outputs are pinned here as CRC32s of the
previous forms' bytes (uint32 views), so a kernel swap that moves one
bit fails: at dim 1 the field axis is the contiguous one, which
``sum`` reduces pairwise, and ``field_sum`` must keep ``sum`` there.
The adagrad property pins the cache's other swap: the optimizer on
contiguous weight and state blocks against the strided halves of one
row block.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.optimizers import PSAdagrad
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.layers import field_sum

FIELDS = 26


def crc(*arrays) -> int:
    """CRC32 of the arrays' bytes, read as uint32 words, in order."""
    value = 0
    for array in arrays:
        value = zlib.crc32(np.ascontiguousarray(array).view(np.uint32).tobytes(), value)
    return value


def criteo_crc(seed: int, n: int) -> int:
    dataset = CriteoSynthetic(FIELDS, 2000, 8.0, seed=seed)
    batches = [dataset.batch(n, index) for index in range(3)]
    return crc(*(part for batch in batches for part in (batch.keys, batch.labels)))


def deepfm_crc(dim: int, batch: int) -> int:
    rng = np.random.default_rng((dim, batch))
    embeddings = (rng.standard_normal((batch, FIELDS, dim)) * 0.3).astype(np.float32)
    labels = rng.integers(0, 2, batch).astype(np.float32)
    model = DeepFM(FIELDS, dim, hidden=(64, 32), use_first_order=False, seed=dim)
    out = model.train_batch(embeddings, labels)
    return crc(np.float64(out.loss), out.embedding_grads, *model.mlp.gradients())


CRITEO_GOLDEN = {
    (1, 1): 2370463319, (1, 8): 85958030,
    (1, 64): 498767457, (1, 512): 513178213,
    (2, 1): 1988426352, (2, 8): 2773560315,
    (2, 64): 3891685586, (2, 512): 1460923086,
}

DEEPFM_GOLDEN = {
    (1, 1): 1170239148, (1, 7): 2459395366,
    (1, 64): 557598255, (1, 256): 1232008433,
    (2, 1): 3477844181, (2, 7): 3231509972,
    (2, 64): 495720235, (2, 256): 2556521901,
    (4, 1): 2352997892, (4, 7): 1964001181,
    (4, 64): 888418076, (4, 256): 4081027502,
    (16, 1): 2058767518, (16, 7): 827685279,
    (16, 64): 4165608243, (16, 256): 4249068751,
}


@pytest.mark.parametrize("seed, n", sorted(CRITEO_GOLDEN))
def test_criteo_batches_keep_their_bits(seed, n):
    assert criteo_crc(seed, n) == CRITEO_GOLDEN[seed, n]


@pytest.mark.parametrize("dim, batch", sorted(DEEPFM_GOLDEN))
def test_deepfm_loss_and_gradients_keep_their_bits(dim, batch):
    assert deepfm_crc(dim, batch) == DEEPFM_GOLDEN[dim, batch]


SPECIALS = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-40, 3.4e38, -3.4e38]
)
FLOATS = st.one_of(st.floats(width=32, allow_nan=True, allow_infinity=True), SPECIALS)


@given(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 9), st.integers(1, 30), st.integers(2, 20)),
        elements=FLOATS,
    )
)
def test_field_sum_is_the_sum_over_fields(x):
    with np.errstate(all="ignore"):  # inf - inf, overflow: the bits still compare
        assert field_sum(x).view(np.uint32).tobytes() == x.sum(axis=1).view(np.uint32).tobytes()


@given(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 40), st.integers(1, 8)),
        elements=st.floats(-10, 10, width=32),
    ),
    st.integers(0, 2**32 - 1),
)
def test_adagrad_gives_contiguous_and_strided_halves_the_same_bits(grads, seed):
    n, dim = grads.shape
    rng = np.random.default_rng(seed)
    block = np.concatenate(
        [rng.standard_normal((n, dim)), rng.random((n, dim)) + 0.1], axis=1
    ).astype(np.float32)
    weights, state = block[:, :dim].copy(), block[:, dim:].copy()
    optimizer = PSAdagrad(0.05)
    optimizer.apply_batch(block[:, :dim], block[:, dim:], grads)
    optimizer.apply_batch(weights, state, grads)
    assert np.concatenate([weights, state], axis=1).tobytes() == block.tobytes()
