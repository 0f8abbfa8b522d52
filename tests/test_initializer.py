"""``repro.core.initializer``: bit equality with numpy is the contract.

``key_seeded_rows`` restates ``np.random.default_rng((seed, key))
.uniform(-scale, scale, dim).astype(float32)`` as array arithmetic over
a key column. Every trained weight, checkpoint and recorded benchmark
state starts from those rows, so the comparison below is on the
``uint32`` views of the floats and the oracle is numpy itself, one key
at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core import initializer
from repro.core.initializer import block_min, key_seeded_rows
from repro.core.optimizers import PSAdagrad
from repro.core.ps_node import PSNode
from repro.core.server import OpenEmbeddingServer
from repro.errors import ConfigError, ReproError
from repro.network.frontend import RemotePSClient
from repro.obs.tracer import Tracer

from tests.test_hotpath_equivalence import TestNoPerKeyPython

MANY = block_min(4)  # dim 4 below: a block this long takes the array form
SEEDS = [0, 1, 2**31, 2**32, 2**40 + 7, 2**64 + 3, 2**130 + 5]  # one to five entropy words
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
DIMS = [1, 16, 64, 129]


def oracle(seed: int, keys, scale: float, dim: int) -> np.ndarray:
    """numpy's own generator, one key at a time."""
    rows = np.empty((len(keys), dim), dtype=np.float32)
    for i, key in enumerate(keys):
        rng = np.random.default_rng((seed, int(key)))
        rows[i] = rng.uniform(-scale, scale, dim).astype(np.float32)
    return rows


def assert_bit_equal(seed: int, keys, scale: float, dim: int) -> None:
    keys = np.asarray(keys, dtype=np.uint64)
    got = key_seeded_rows(seed, keys, scale, dim)
    assert got.dtype == np.float32 and got.shape == (len(keys), dim)
    want = oracle(seed, keys, scale, dim)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (seed, scale, dim)


def block_of(rng, narrow: int, wide: int) -> np.ndarray:
    """The edge keys plus random narrow and wide ids, shuffled."""
    keys = np.concatenate([
        np.array(EDGE_KEYS, dtype=np.uint64),
        rng.integers(0, 2**32, narrow, dtype=np.uint64),
        rng.integers(2**32, 2**64, wide, dtype=np.uint64),
    ])
    rng.shuffle(keys)
    return keys


class TestBitEquality:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_mixed_narrow_and_wide_keys_in_one_block(self, seed, dim):
        enough = block_min(dim)  # of each width: both take the array form
        keys = block_of(np.random.default_rng(dim), narrow=enough, wide=enough)
        for scale in (0.01, 0.5):
            assert_bit_equal(seed, keys, scale, dim)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_narrow_and_all_wide_blocks(self, seed):
        rng = np.random.default_rng(5)
        assert_bit_equal(seed, rng.integers(0, 2**32, 70, dtype=np.uint64), 0.01, 16)
        assert_bit_equal(seed, rng.integers(2**32, 2**64, 70, dtype=np.uint64), 0.01, 16)

    def test_a_few_keys_of_the_other_width_inside_a_block(self):
        """Each width is drawn in the form its own count calls for: three
        wide ids among a hundred narrow ones go through numpy's
        generator, the hundred through the array form — and back in
        place."""
        rng = np.random.default_rng(12)
        narrow = rng.integers(0, 2**32, 100, dtype=np.uint64)
        wide = rng.integers(2**32, 2**64, 100, dtype=np.uint64)
        for many, few in ((narrow, wide[:3]), (wide, narrow[:3])):
            keys = np.concatenate([many[:50], few, many[50:]])
            assert_bit_equal(1, keys, 0.01, 16)

    def test_duplicated_keys_repeat_their_row(self):
        keys = np.tile(block_of(np.random.default_rng(6), 10, 10), 3)
        assert_bit_equal(1, keys, 0.01, 16)
        rows = key_seeded_rows(1, keys, 0.01, 16)
        assert np.array_equal(rows[: len(keys) // 3], rows[len(keys) // 3 : 2 * len(keys) // 3])

    def test_no_keys(self):
        rows = key_seeded_rows(1, np.empty(0, dtype=np.uint64), 0.01, 16)
        assert rows.shape == (0, 16) and rows.dtype == np.float32

    @pytest.mark.parametrize("dim", [1, 16, 64])
    def test_both_sides_of_the_size_threshold(self, dim):
        """The per-key branch and the array form are one function."""
        rng = np.random.default_rng(dim)
        for n in (1, block_min(dim) - 1, block_min(dim), block_min(dim) + 1):
            assert_bit_equal(3, rng.integers(0, 2**32, n, dtype=np.uint64), 0.01, dim)
            assert_bit_equal(3, rng.integers(2**32, 2**64, n, dtype=np.uint64), 0.01, dim)

    def test_the_threshold_grows_with_the_dim(self):
        """The array form's fixed cost is per output word."""
        assert [block_min(dim) for dim in (1, 16, 64)] == [11, 33, 105]

    @pytest.mark.parametrize("keys_per_step", [0, 10**9])
    def test_either_form_alone_serves_any_size(self, monkeypatch, keys_per_step):
        """With the constant forced to each extreme, every size still
        matches numpy: the constant selects speed, never values."""
        monkeypatch.setattr(initializer, "_KEYS_PER_STEP", keys_per_step)
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 33, 100):
            assert_bit_equal(2**40 + 7, block_of(rng, 50, 50)[:n], 0.5, 5)

    def test_a_block_longer_than_one_chunk(self, monkeypatch):
        monkeypatch.setattr(initializer, "_CHUNK", 64)
        assert_bit_equal(1, block_of(np.random.default_rng(9), 90, 90), 0.01, 3)

    def test_zero_scale_is_all_positive_zero(self):
        """As numpy gives: ``-0.0 + 0.0 * u`` is ``+0.0``."""
        for n in (3, 80):
            rows = key_seeded_rows(1, np.arange(n, dtype=np.uint64), 0.0, 16)
            assert not rows.view(np.uint32).any()
            assert_bit_equal(1, np.arange(n), 0.0, 16)

    def test_a_list_of_keys_is_accepted(self):
        assert np.array_equal(
            key_seeded_rows(7, [5, 2**64 - 1], 0.01, 4),
            oracle(7, [5, 2**64 - 1], 0.01, 4),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**70)),
        keys=st.lists(
            st.one_of(
                st.sampled_from(EDGE_KEYS), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
            ),
            min_size=0, max_size=2 * block_min(16) + 8,
        ),
        scale=st.sampled_from([0.0, 0.01, 0.5, 1000.0, 1e-300, 1e-310]),
        dim=st.sampled_from(DIMS + [2, 7]),
    )
    def test_equals_numpy_per_key(self, seed, keys, scale, dim):
        assert_bit_equal(seed, keys, scale, dim)


class TestRefusals:
    """What numpy would refuse with a bare ValueError / OverflowError
    mid-pull is refused as a ConfigError, by the function and — before any
    node exists — by the config."""

    @pytest.mark.parametrize("n", [1, 2 * MANY])
    @pytest.mark.parametrize(
        "seed, scale", [(-1, 0.01), (1, -0.01), (1, float("nan")), (1, float("inf")), (1, 1e308)]
    )
    def test_the_function_refuses(self, n, seed, scale):
        with pytest.raises(ConfigError):
            key_seeded_rows(seed, np.arange(n, dtype=np.uint64), scale, 4)

    BAD_FIELDS = [{"seed": -1}, {"initializer_scale": -0.01}, {"initializer_scale": float("nan")}]

    @pytest.mark.parametrize("field", BAD_FIELDS)
    def test_the_config_refuses_at_construction(self, field):
        with pytest.raises(ConfigError):
            ServerConfig(embedding_dim=4, **field)

    @pytest.mark.parametrize("field", BAD_FIELDS)
    @pytest.mark.parametrize("backend", [OpenEmbeddingServer, RemotePSClient])
    @pytest.mark.parametrize("n", [1, 2 * MANY])
    def test_a_pull_fails_typed_on_both_transports(self, backend, field, n):
        """A config that got past validation (smuggled here): the first
        pull is a ReproError — over RPC a status frame, not a dead
        handler — where numpy's bare ValueError used to escape."""
        config = ServerConfig(embedding_dim=4)
        for name, value in field.items():
            object.__setattr__(config, name, value)
        server = backend(config, CacheConfig())
        with pytest.raises(ReproError):
            server.pull(np.arange(n), 0)

    @pytest.mark.parametrize("backend", [OpenEmbeddingServer, RemotePSClient])
    def test_zero_scale_trains_from_zero(self, backend):
        server = backend(
            ServerConfig(num_nodes=2, embedding_dim=4, initializer_scale=0.0), CacheConfig()
        )
        for keys in (np.arange(5), np.arange(100, 100 + 4 * MANY)):
            weights = server.pull(keys, 0).weights
            assert weights.shape == (len(keys), 4) and not weights.view(np.uint32).any()


class TestCreatePath:
    def test_a_pull_creates_what_numpy_would(self):
        """Through the node, on either side of the size constant, and for
        a cold serving lookup of a key no shard ever stored."""
        config = ServerConfig(embedding_dim=8, seed=11, initializer_scale=0.05)
        node = PSNode(0, config, CacheConfig(), PSAdagrad())
        keys = block_of(np.random.default_rng(10), 60, 60)
        few, many = keys[:5], keys[5:]
        for batch_id, part in enumerate((few, many)):
            got = node.pull(part, batch_id).weights
            want = oracle(11, part, 0.05, 8)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
            node.maintain(batch_id)
        node.barrier_checkpoint(1)
        unseen = np.array([2**50 + 1, 3], dtype=np.uint64)
        result = node.lookup(unseen)
        assert result.cold == 2
        assert np.array_equal(result.weights, oracle(11, unseen, 0.05, 8))

    def test_creation_is_a_span_and_says_which_form_ran(self):
        tracer = Tracer()
        node = PSNode(0, ServerConfig(embedding_dim=4), CacheConfig(), tracer=tracer)
        node.pull(np.arange(3), 0)
        node.pull(np.arange(3), 0)  # all hits: nothing created, no span
        node.pull(np.arange(1000, 1000 + 2 * MANY), 0)
        spans = [span for span in tracer.spans if span.name == "cache.create"]
        assert [(span.track, span.attrs["rows"], span.attrs["block"]) for span in spans] == [
            ("cache", 3, False), ("cache", 2 * MANY, True),
        ]
        assert node.metrics.entries_created == 3 + 2 * MANY

    def test_opcode_count_does_not_grow_with_the_keys_created(self):
        """Structural guard: a pull creating 8 192 keys executes the
        instructions of one creating 256 — draw, index insert and arena
        fill are blocks, with no Python step per key."""
        node = PSNode(
            0, ServerConfig(embedding_dim=16, seed=7), CacheConfig(capacity_bytes=1 << 22),
            PSAdagrad(),
        )
        rng = np.random.default_rng(4)
        universe = rng.choice(2**32, 256 + 8192, replace=False).astype(np.uint64)
        universe[::3] += np.uint64(2**40)  # narrow and wide ids in both pulls

        def creating(keys, batch_id):
            return TestNoPerKeyPython.count(
                lambda: node.cache.pull(keys, batch_id), where=("/repro/core/",)
            )

        small = creating(universe[:256], 0)
        large = creating(universe[256:], 1)
        assert node.metrics.entries_created == 256 + 8192
        # (The index is rebuilt larger for the second block and settles
        # its collisions in more rounds: ~2 500 instructions. One step
        # per key would add at least 7 936.)
        assert small > 1000 and large <= small + 4000, (small, large)
        # The draw itself is the same instructions whatever the block.
        draws = [
            TestNoPerKeyPython.count(
                lambda: key_seeded_rows(7, keys, 0.01, 16), where=("/repro/core/",)
            )
            for keys in (universe[:256], universe[256:])
        ]
        assert draws[0] == draws[1] > 1000, draws
