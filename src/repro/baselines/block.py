"""What the Table III baselines share: keys through a hash index, rows
moved as blocks.

DRAM-PS and PMem-Hash differ in where an entry's packed ``weights ||
optimizer state`` row lives — a row of a DRAM
:class:`~repro.core.arena.EmbeddingArena` or a slot of the pool's PMem
:class:`~repro.pmem.pool.EntrySlab` — and in what survives a crash.
Everything else is :class:`BlockPSNode`: a
:class:`~repro.core.hash_index.HashIndex` resolves a batch of keys to
slots whose ``row`` column addresses the rows. A pull is one probe, one
:func:`~repro.core.initializer.key_seeded_rows` call for the keys it
creates and one gather; a push is one probe of its distinct keys (one
whose keys do not ascend is summed per key first,
:func:`~repro.core.sharding.summed_per_key`), one ``apply_batch`` and
one scatter — the arithmetic :class:`~repro.core.cache.PipelinedCache`
does, so every system trains to the same bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.entry import Location
from repro.core.hash_index import HashIndex
from repro.core.initializer import key_seeded_rows
from repro.core.optimizers import PSOptimizer, PSSGD, coerce_f32
from repro.core.serving_backend import LookupResult
from repro.core.sharding import summed_per_key
from repro.errors import KeyNotFoundError
from repro.simulation.metrics import Metrics


class BlockPSNode:
    """A cacheless PS node over one row store (see the module docstring).

    A subclass names where its rows live (``LOCATION``: an access to a
    DRAM row is a hit, to a PMem row a miss) and moves them:
    :meth:`_place` stores the rows of new keys and returns their
    addresses, :meth:`_read` gathers rows, :meth:`_write` stores pushed
    ones back, and :meth:`_durable` says which keys a serving read finds
    durable rows for.
    """

    LOCATION: Location

    def __init__(self, server_config: ServerConfig | None, optimizer: PSOptimizer | None):
        self.server_config = server_config or ServerConfig()
        self.optimizer = optimizer or PSSGD()
        self.metrics = Metrics()
        self.dim = dim = self.server_config.embedding_dim
        self.state_width = self.optimizer.state_width(dim)
        self.entry_bytes = (dim + self.state_width) * 4
        self.index = HashIndex()
        self.latest_completed_batch = -1

    # ------------------------------------------------------------------
    # PS protocol
    # ------------------------------------------------------------------

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Serve a pull; unseen keys are created first, as one block."""
        keys = np.asarray(keys, dtype=np.uint64)
        slots = self.index.lookup(keys)
        created = 0
        if len(keys) and slots.min() < 0:
            created = self._create(keys, slots, batch_id)
        weights = self._read(self.index.columns.row[slots])[:, : self.dim]
        found = len(keys) - created
        hits = found if self.LOCATION == Location.DRAM else 0
        self.metrics.pulls += len(keys)
        self.metrics.cache.hits += hits
        self.metrics.cache.misses += found - hits
        self.metrics.entries_created += created
        return PullResult(weights=weights, hits=hits, misses=found - hits, created=created)

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """No cache tier to maintain; returns an empty shard list."""
        return []

    def push(self, keys: Sequence[int], grads: np.ndarray, batch_id: int) -> int:
        """Apply pushed gradients: each distinct entry takes one
        optimizer step (:func:`~repro.core.sharding.summed_per_key`).
        Returns the distinct entries updated."""
        keys, grads = summed_per_key(keys, coerce_f32(grads))
        slots = self.index.lookup(keys)
        if len(keys) and slots.min() < 0:
            raise KeyNotFoundError(int(keys[slots < 0][0]))
        rows = self.index.columns.row[slots]
        block = self._read(rows)
        self.optimizer.apply_batch(
            block[:, : self.dim], block[:, self.dim :] if self.state_width else None, grads
        )
        self._write(keys, rows, block, batch_id)
        self.metrics.updates += len(keys)
        self.latest_completed_batch = max(self.latest_completed_batch, batch_id)
        return len(keys)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self.index)

    def read_weights(self, key: int) -> np.ndarray:
        entry = self.index.find(key)
        if entry is None:
            raise KeyNotFoundError(key)
        return self._read(np.array([entry.row]))[0, : self.dim]

    def state_snapshot(self) -> dict[int, np.ndarray]:
        columns = self.index.columns
        live = columns.live()
        weights = self._read(columns.row[live])[:, : self.dim]
        return dict(zip(columns.key[live].tolist(), weights))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _create(self, keys: np.ndarray, slots: np.ndarray, batch_id: int) -> int:
        """Create the keys of a pull the index does not hold (``slots``
        < 0) and fill their positions of ``slots`` in; returns how many."""
        absent = np.flatnonzero(slots < 0)
        cfg = self.server_config
        new = np.unique(keys[absent])
        block = np.empty((len(new), self.dim + self.state_width), dtype=np.float32)
        block[:, : self.dim] = key_seeded_rows(cfg.seed, new, cfg.initializer_scale, self.dim)
        if self.state_width:
            block[:, self.dim :] = self.optimizer.init_state(self.dim)
        rows = self._place(new, block, batch_id)
        new_slots = self.index.insert_many(new, self.LOCATION)
        self.index.columns.row[new_slots] = rows
        slots[absent] = self.index.lookup(keys[absent])
        return len(new)

    def _serve(self, keys: Sequence[int], snapshot_id: int) -> LookupResult:
        """A serving read pinned to ``snapshot_id``: the durable rows of
        ``keys`` (:meth:`_durable`), the key-seeded initializer's for
        keys without one."""
        keys = np.asarray(keys, dtype=np.uint64)
        found, stored = self._durable(keys)
        cold = np.flatnonzero(~found)
        weights = np.empty((len(keys), self.dim), dtype=np.float32)
        weights[found] = stored[:, : self.dim]
        cfg = self.server_config
        weights[cold] = key_seeded_rows(cfg.seed, keys[cold], cfg.initializer_scale, self.dim)
        self.metrics.serving_lookups += 1
        self.metrics.serving_rows += len(keys)
        self.metrics.serving_cold_rows += len(cold)
        return LookupResult(
            weights=weights,
            snapshot_id=snapshot_id,
            hits=len(keys) - len(cold),
            cold=len(cold),
        )
