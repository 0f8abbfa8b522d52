"""The per-key robust-aggregation fold — the oracle for ``core/aggregators.py``.

This is the ``AggregationBuffer`` as it stood before the fold went
block-wise (as ``reference_cache.py`` keeps the per-key cache): the 2-D
``fold`` bodies, the queues with their generator sums, a per-push sum
that walks the push one key at a time through a dict, and
``_fold_round`` building a ``dict[key -> [(contribution, row)]]`` in a
Python double loop, then stacking and folding one key at a time in
ascending key order. Too slow to serve pushes, exactly right as the
definition of what a fold round must return: the production buffer's
output keys, their order, ``batch_id``, ``contributors``, ``stats``
and every float32 bit are compared against this module in
``tests/test_aggregators.py``. It shares no layout code with the
production buffer (Python dicts and ``sorted``, no argsort), so a
layout bug cannot hide in both; do not "modernise" it.
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from repro.core.aggregators import (
    AggregatorStats,
    FoldedPush,
    GradientAggregator,
    _Contribution,
)
from repro.errors import ConfigError


class ReferenceMean(GradientAggregator):
    """Plain averaging; the identity for ``m == 1`` (bitwise)."""

    name = "mean"

    def fold(self, rows: np.ndarray) -> np.ndarray:
        if len(rows) == 1:
            # sum/1 is an exact identity, but skip the flops anyway.
            return rows[0]
        return np.mean(rows, axis=0, dtype=np.float32)


class ReferenceTrimmedMean(GradientAggregator):
    """Per-coordinate trimmed mean: drop ``f`` values from each end."""

    name = "trimmed_mean"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ConfigError(f"trimmed_mean f must be >= 0, got {f}")
        self.f = f

    def fold(self, rows: np.ndarray) -> np.ndarray:
        m = len(rows)
        if m == 1:
            return rows[0]
        trim = min(self.f, (m - 1) // 2)
        if trim == 0:
            return np.mean(rows, axis=0, dtype=np.float32)
        ordered = np.sort(rows, axis=0)
        kept = ordered[trim : m - trim]
        return np.mean(kept, axis=0, dtype=np.float32)


class ReferenceMedian(GradientAggregator):
    """Per-coordinate median."""

    name = "median"

    def fold(self, rows: np.ndarray) -> np.ndarray:
        if len(rows) == 1:
            return rows[0]
        return np.median(rows, axis=0).astype(np.float32, copy=False)


class ReferenceKrum(GradientAggregator):
    """Krum-style selection: keep the best-vouched single row."""

    name = "krum"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ConfigError(f"krum f must be >= 0, got {f}")
        self.f = f

    def fold(self, rows: np.ndarray) -> np.ndarray:
        m = len(rows)
        if m == 1:
            return rows[0]
        # Pairwise squared distances; each row scored by its k nearest
        # *other* rows, k = m - f - 2 clamped to [1, m - 1].
        diffs = rows[:, None, :] - rows[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(dist2, np.inf)
        k = min(max(1, m - self.f - 2), m - 1)
        nearest = np.sort(dist2, axis=1)[:, :k]
        scores = nearest.sum(axis=1)
        return rows[int(np.argmin(scores))]


def make_reference_aggregator(name: str, f: int = 1) -> GradientAggregator:
    """The per-key twin of ``make_aggregator(name, f)``."""
    return {
        "mean": ReferenceMean,
        "trimmed_mean": lambda: ReferenceTrimmedMean(f),
        "median": ReferenceMedian,
        "krum": lambda: ReferenceKrum(f),
    }[name]()


def _segment_sum(keys: np.ndarray, grads: np.ndarray):
    """Per-key sum, one key at a time: a key's rows accumulate in
    occurrence order, seeded from the first (the cache fast path's
    float32 sequence); the keys come out ascending."""
    sums: dict[int, np.ndarray] = {}
    for key, row in zip(keys.tolist(), grads):
        if key in sums:
            sums[key] = sums[key] + row
        else:
            sums[key] = np.array(row, dtype=np.float32, copy=True)
    unique = sorted(sums)
    agg = np.empty((len(unique), grads.shape[1]), dtype=np.float32)
    for i, key in enumerate(unique):
        agg[i] = sums[key]
    return np.array(unique, dtype=np.uint64), agg


class ReferenceAggregationBuffer:
    """Per-worker push queues + quorum-triggered robust folding.

    Pushes are buffered per worker; whenever at least
    ``q = max(1, num_workers - f)`` workers have a contribution
    pending, one contribution is popped from *every* pending worker and
    folded key-by-key with the aggregator. ``(worker_id, seq)`` replay
    dedup happens here too (``seq=0`` opts out), so duplicated pushes
    are absorbed identically on the local and RPC transports.
    """

    def __init__(
        self,
        aggregator: GradientAggregator,
        num_workers: int,
        f: int = 0,
        dedup_window: int = 1024,
    ):
        if num_workers < 1:
            raise ConfigError("aggregation needs num_workers >= 1")
        if f < 0 or f >= num_workers:
            raise ConfigError(
                f"byzantine tolerance f={f} must be in [0, num_workers)"
            )
        self.aggregator = aggregator
        self.num_workers = num_workers
        self.f = f
        self.quorum = max(1, num_workers - f)
        self._queues: OrderedDict[int, deque[_Contribution]] = OrderedDict()
        self._seen: deque[tuple[int, int]] = deque(maxlen=dedup_window)
        self._seen_set: set[tuple[int, int]] = set()
        self.stats = AggregatorStats()

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def add(
        self,
        worker_id: int | None,
        keys: np.ndarray,
        grads: np.ndarray,
        batch_id: int,
        seq: int = 0,
    ) -> list[FoldedPush]:
        """Buffer one push; returns every fold round it unlocked."""
        wid = 0 if worker_id is None or worker_id < 0 else int(worker_id)
        if seq:
            dedup_key = (wid, int(seq))
            if dedup_key in self._seen_set:
                self.stats.duplicates_dropped += 1
                return []
            if len(self._seen) == self._seen.maxlen and self._seen:
                self._seen_set.discard(self._seen[0])
            self._seen.append(dedup_key)
            self._seen_set.add(dedup_key)
        unique, summed = _segment_sum(
            np.asarray(keys, dtype=np.uint64),
            np.asarray(grads, dtype=np.float32),
        )
        self._queues.setdefault(wid, deque()).append(
            _Contribution(keys=unique, grads=summed, batch_id=int(batch_id))
        )
        self.stats.pushes_buffered += 1
        folded = []
        while self._ready():
            folded.append(self._fold_round())
        return folded

    def flush(self) -> list[FoldedPush]:
        """Fold everything still pending, quorum or not.

        Called on quiesce/checkpoint so a batch-consistent snapshot
        captures every buffered gradient.
        """
        folded = []
        while self.pending:
            folded.append(self._fold_round())
        return folded

    # ------------------------------------------------------------------

    def _ready(self) -> bool:
        pending_workers = sum(1 for q in self._queues.values() if q)
        return pending_workers >= self.quorum

    def _fold_round(self) -> FoldedPush:
        popped = [
            (wid, self._queues[wid].popleft())
            for wid in sorted(self._queues)
            if self._queues[wid]
        ]
        contributions = [contribution for __, contribution in popped]
        batch_id = max(c.batch_id for c in contributions)
        if len(contributions) == 1:
            # Identity fold: apply the pre-summed push untouched so the
            # single-worker path stays bitwise-equal to no buffering.
            only = contributions[0]
            self.stats.folds += 1
            self.stats.rows_folded += len(only.keys)
            return FoldedPush(
                keys=only.keys, grads=only.grads,
                batch_id=batch_id, contributors=1,
            )
        # Union of keys, each with its sources in worker order; the
        # output layout is ascending key order.
        index: dict[int, list] = {}
        for ci, contribution in enumerate(contributions):
            for ki, key in enumerate(contribution.keys.tolist()):
                index.setdefault(key, []).append((ci, ki))
        width = contributions[0].grads.shape[1]
        ordered = sorted(index.items())
        out_keys = np.array([key for key, __ in ordered], dtype=np.uint64)
        out = np.empty((len(index), width), dtype=np.float32)
        for row, (key, sources) in enumerate(ordered):
            rows = np.stack(
                [contributions[ci].grads[ki] for ci, ki in sources]
            )
            out[row] = (
                rows[0] if len(rows) == 1 else self.aggregator.fold(rows)
            )
        self.stats.folds += 1
        self.stats.rows_folded += len(out_keys)
        return FoldedPush(
            keys=out_keys, grads=out,
            batch_id=batch_id, contributors=len(contributions),
        )
