"""Shared fixtures: small, fast configurations for unit tests."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# Deterministic hypothesis profile: property tests replay the same
# example stream on every run (derandomize fixes the PRNG seed) and
# never flake on wall-clock (deadline=None — CI machines are noisy).
# CI exports HYPOTHESIS_PROFILE=deterministic explicitly; developers
# can opt into fresh examples with HYPOTHESIS_PROFILE=explore.
hypothesis_settings.register_profile(
    "deterministic", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.register_profile("explore", deadline=None)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "deterministic")
)

from repro.config import CacheConfig, ServerConfig
from repro.core.checkpoint import CheckpointCoordinator
from repro.core.cache import PipelinedCache
from repro.core.optimizers import PSSGD
from repro.core.ps_node import PSNode
from repro.pmem.pool import PmemPool
from repro.pmem.space import VersionedEntryStore

DIM = 4
ENTRY_BYTES = DIM * 4


def pytest_addoption(parser):
    parser.addoption(
        "--soak",
        action="store_true",
        help="raise the example counts of the scenario searches (tests/test_scenarios.py)",
    )


@pytest.fixture
def soak(request) -> bool:
    """True under ``pytest --soak``: the long schedule searches."""
    return request.config.getoption("--soak")


@pytest.fixture
def pool():
    return PmemPool(capacity_bytes=1 << 20)


@pytest.fixture
def store(pool):
    return VersionedEntryStore(pool, entry_bytes=ENTRY_BYTES)


@pytest.fixture
def coordinator(store):
    return CheckpointCoordinator(store)


def key_valued_rows(keys: np.ndarray) -> np.ndarray:
    """A block initializer for tests: every weight of a row is its key."""
    return np.repeat(keys.astype(np.float32)[:, None], DIM, axis=1)


def make_cache(
    store,
    coordinator,
    capacity_entries: int = 4,
    *,
    track_dirty: bool = False,
) -> PipelinedCache:
    """A small cache; capacity is given in entries for readability."""
    config = CacheConfig(
        capacity_bytes=capacity_entries * ENTRY_BYTES, track_dirty=track_dirty
    )
    return PipelinedCache(
        config,
        store,
        coordinator,
        dim=DIM,
        initializer=key_valued_rows,
        optimizer=PSSGD(lr=0.5),
    )


@pytest.fixture
def cache(store, coordinator):
    return make_cache(store, coordinator)


def make_node(
    capacity_entries: int = 8,
    *,
    num_nodes: int = 1,
    dim: int = DIM,
    seed: int = 0,
    optimizer=None,
) -> PSNode:
    server_config = ServerConfig(
        num_nodes=num_nodes,
        embedding_dim=dim,
        pmem_capacity_bytes=1 << 22,
        seed=seed,
    )
    cache_config = CacheConfig(capacity_bytes=capacity_entries * dim * 4)
    return PSNode(
        0,
        server_config,
        cache_config,
        optimizer or PSSGD(lr=0.5),
    )


@pytest.fixture
def node():
    return make_node()
