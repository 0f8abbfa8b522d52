"""Lookahead prefetch pipeline over a :class:`TrainBackend`.

The paper's central performance claim (Section V-B, Figure 5) is that
cache/PMem maintenance can be deferred off the pull critical path and
hidden behind GPU compute. BagPipe-style lookahead generalises the
trick to the *pull* itself: because the training stream is known ahead
of time, the keys of the next ``lookahead`` batches can be

1. **deduplicated** against what is already buffered (cross-batch key
   reuse is heavy under Zipfian access skew), and
2. **prefetched** during the current batch's GPU compute, together with
   the deferred ``maintain`` round,

so that by the time batch ``b+1`` starts, its pull burst is (mostly)
already resident client-side and only a small *demand* remainder hits
the critical path.

Staleness invariant
-------------------
Weights must be **bit-identical** to serial execution. The one hazard
is a buffered entry whose key is touched by an in-flight push: its
buffered copy is stale the moment the push applies. The pipeline
therefore *invalidates* every pushed key and, at the end of the step,
re-pulls ("patches") the ones still inside the lookahead window, off the
next batch's critical path. The re-pull observes the post-push weights,
exactly what a serial pull at the later batch would see.

Access-queue discipline
-----------------------
Every backend pull carries the batch tag of the *next* maintenance
round that will process it: demand pulls of batch ``b`` are tagged
``b`` (consumed by ``maintain(b)`` inside the overlap window), while
prefetch and patch pulls issued after ``maintain(b)`` are tagged
``b + 1``. The server-side access queue therefore never observes a tag
from the future, and cache versions advance exactly one round at a
time. An entry served from the buffer skips its batch's maintenance
round entirely; the cache's update path compensates by applying
maintain's flush-before-advance rule on push (see
:meth:`repro.core.cache.PipelinedCache.update`).

Buffer layout
-------------
The whole state is four arrays: a sorted ``uint64`` key column, the
``(n, dim)`` row block aligned with it, the window as a sorted unique
key array and the keys pushed this step, appended as they arrive. Every step is set algebra on them, so a
step costs a fixed number of numpy calls whatever the batch size. The
*order* of the keys inside each backend pull is part of the contract —
demand keys in first-appearance order, prefetch and patch keys
ascending — because the server's LRU order, and through it every
eviction and every counter, follows it.
:class:`~repro.simulation.trainer_sim.TrainingSimulator` drives this
same class, and its cost model prices the overlap window (the pipeline
keeps no clock).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.config import PrefetchConfig
from repro.core.backend import TrainBackend, check_backend
from repro.core.cache import MaintainResult
from repro.errors import ConfigError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.metrics import PrefetchStats

_NO_KEYS = np.empty(0, dtype=np.uint64)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending. One sort: ``np.unique`` without
    ``return_index`` takes a hash pass since numpy 2.3 that measured ~10x
    slower on a batch's worth of integer keys."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class PrefetchPipeline:
    """Client-side lookahead buffer in front of a :class:`TrainBackend`.

    One trainer step drives the pipeline through four calls::

        pipeline.begin_batch(b, batch_keys)   # demand pulls (tag b)
        rows = pipeline.gather(key_matrix)    # serve lookups from buffer
        pipeline.run_overlap(b)               # maintain(b) + prefetch (tag b+1)
        pipeline.push(keys, grads, b)         # push + invalidate
        pipeline.end_batch(b)                 # patch (tag b+1) + prune

    Args:
        backend: any :class:`TrainBackend` (in-process server, remote RPC
            client, or a baseline).
        config: the lookahead depth, at least 1 (lookahead 0 is no
            pipeline: the callers keep the serial protocol).
        dim: embedding dimension of the buffered rows.
        keys_for_batch: deterministic peek into the workload stream —
            returns the key array (any shape) of a future global batch.
        horizon: last batch id that will ever be trained; the window is
            clipped to it so prefetch never creates entries for batches
            that no serial run would touch. ``None`` = unbounded
            (set by ``SynchronousTrainer.train``).
        tracer: span sink for the demand, maintain, prefetch and patch
            phases.

    The pipeline's counters are :attr:`stats`, a
    :class:`~repro.simulation.metrics.PrefetchStats`.
    """

    def __init__(
        self,
        backend: TrainBackend,
        config: PrefetchConfig,
        dim: int,
        keys_for_batch: Callable[[int], np.ndarray],
        *,
        horizon: int | None = None,
        tracer: Tracer | None = None,
    ):
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}")
        if not config.enabled:
            raise ConfigError(
                f"lookahead must be >= 1 for a pipeline, got {config.lookahead}"
            )
        self.backend = check_backend(backend, role="train")
        self.config = config
        self.dim = dim
        self.keys_for_batch = keys_for_batch
        self.horizon = horizon
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = PrefetchStats()
        self._keys = _NO_KEYS
        #: rows aligned with ``_keys``
        self._rows = np.empty((0, dim), dtype=np.float32)
        self._window = _NO_KEYS
        self._pushed = _NO_KEYS

    # ------------------------------------------------------------------
    # step protocol
    # ------------------------------------------------------------------

    def begin_batch(self, batch_id: int, keys: np.ndarray) -> None:
        """Demand-pull the batch's keys that are not validly buffered.

        Tagged ``batch_id``: these are the only pulls of the batch on
        the critical path, and the ones its ``maintain`` round will
        process. Under warm lookahead the demand set is (near) empty.
        """
        flat = np.asarray(keys, dtype=np.uint64).reshape(-1)
        unique, first = np.unique(flat, return_index=True)
        absent = np.isin(unique, self._keys, assume_unique=True, invert=True)
        missing = flat[np.sort(first[absent])]  # first-appearance order
        self.stats.demand_keys += missing.size
        self.stats.buffer_hits += flat.size - missing.size
        if missing.size:
            with self.tracer.span(
                "prefetch.demand",
                track="prefetch",
                batch=batch_id,
                keys=missing.size,
            ):
                self._pull_into_buffer(missing, batch_id, lookahead=False)

    def gather(self, key_matrix: np.ndarray) -> np.ndarray:
        """Serve a (batch, fields) lookup matrix from the buffer.

        Returns a float32 tensor of shape (batch, fields, dim) — the
        same values a direct ``backend.pull`` at this batch would have
        produced (the staleness invariant guarantees it).
        """
        key_matrix = np.asarray(key_matrix)
        if key_matrix.ndim != 2:
            raise ConfigError(
                f"key matrix must be 2-D, got shape {key_matrix.shape}"
            )
        flat = key_matrix.reshape(-1).astype(np.uint64, copy=False)
        at = np.searchsorted(self._keys, flat)
        found = at < self._keys.size
        found[found] = self._keys[at[found]] == flat[found]
        if not found.all():
            raise ServerError(
                f"key {flat[~found][0]} not buffered; begin_batch not run?"
            )
        return self._rows[at].reshape(*key_matrix.shape, self.dim)

    def run_overlap(self, batch_id: int) -> list[MaintainResult]:
        """The overlap window: deferred maintain + lookahead prefetch.

        Runs ``maintain(batch_id)`` (Algorithm 2's deferred round) and
        then prefetches the deduplicated keys of the next ``lookahead``
        batches, tagged ``batch_id + 1``.
        """
        with self.tracer.span(
            "prefetch.maintain", track="maintainer", batch=batch_id
        ):
            results = self.backend.maintain(batch_id)
        self._window = self._peek_window(batch_id)
        candidates = np.setdiff1d(self._window, self._keys, assume_unique=True)
        self.stats.deduped_keys += self._window.size - candidates.size
        if candidates.size:
            with self.tracer.span(
                "prefetch.prefetch_pull",
                track="maintainer",
                batch=batch_id,
                keys=candidates.size,
            ):
                self._pull_into_buffer(candidates, batch_id + 1, lookahead=True)
            self.stats.prefetch_keys += candidates.size
        return results

    def push(self, keys: Sequence[int], grads: np.ndarray, batch_id: int) -> int:
        """Forward a push and invalidate every touched buffered key.

        Invalidation is the first half of the staleness invariant: a
        pushed key's buffered copy is stale and must never be served
        again. :meth:`end_batch` re-pulls it if the window still needs
        it.
        """
        updated = self.backend.push(keys, grads, batch_id)
        pushed = np.asarray(keys, dtype=np.uint64)
        self._pushed = np.concatenate((self._pushed, pushed))
        held = self._keys.size
        self._keep(np.isin(self._keys, pushed, invert=True))
        self.stats.invalidated_keys += held - self._keys.size
        return updated

    def end_batch(self, batch_id: int) -> None:
        """Patch pushed window keys and prune the buffer.

        Every pushed key still scheduled inside the lookahead window is
        re-pulled now (tagged ``batch_id + 1``, after this batch's
        maintenance round), restoring the second half of the staleness
        invariant off the next batch's critical path. The buffer is then pruned to the window, bounding it to
        roughly ``lookahead`` batches' worth of distinct keys.
        """
        to_patch = np.intersect1d(
            _distinct(self._pushed), self._window, assume_unique=True
        )
        if to_patch.size:
            with self.tracer.span(
                "prefetch.patch",
                track="prefetch",
                batch=batch_id,
                keys=to_patch.size,
            ):
                self._pull_into_buffer(to_patch, batch_id + 1, lookahead=True)
            self.stats.patched_keys += to_patch.size
        self._keep(np.isin(self._keys, self._window, assume_unique=True))
        self._pushed = _NO_KEYS
        self.stats.batches += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def buffered_keys(self) -> int:
        """Distinct keys currently held in the lookahead buffer."""
        return self._keys.size

    def validate(self) -> None:
        """No buffered key may be marked pushed-but-unpatched."""
        stale = np.intersect1d(self._pushed, self._keys)
        if stale.size:
            raise ServerError(
                f"staleness invariant violated for keys {stale[:8]}"
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _peek_window(self, batch_id: int) -> np.ndarray:
        """Deduplicated keys of batches ``batch_id+1 .. batch_id+L``."""
        last = batch_id + self.config.lookahead
        if self.horizon is not None:
            last = min(last, self.horizon)
        blocks = [
            np.asarray(self.keys_for_batch(future), dtype=np.uint64).reshape(-1)
            for future in range(batch_id + 1, last + 1)
        ]
        return _distinct(np.concatenate([_NO_KEYS, *blocks]))

    def _keep(self, mask: np.ndarray) -> None:
        """Drop every buffered key whose ``mask`` entry is False."""
        self._keys = self._keys[mask]
        self._rows = self._rows[mask]

    def _pull_into_buffer(
        self, keys: np.ndarray, tag: int, *, lookahead: bool
    ) -> None:
        """Pull unique ``keys`` and merge them (newest wins) in key order."""
        result = self.backend.pull(keys, tag)
        self.stats.count_pull(result, lookahead)
        self._keep(np.isin(self._keys, keys, invert=True))
        merged = np.concatenate((self._keys, keys))
        order = np.argsort(merged)
        self._keys = merged[order]
        self._rows = np.concatenate((self._rows, result.weights))[order]
