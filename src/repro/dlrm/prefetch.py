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
therefore *invalidates* every pushed key, and restores it either

* **eagerly** (``PrefetchConfig.patch=True``): re-pulled at the end of
  the step, off the next batch's critical path, or
* **lazily** (``patch=False``): the next batch's demand pull fetches
  it again.

Both are bit-identical — a re-pull simply observes the post-push
weights, exactly what a serial pull at the later batch would see.

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

Timing
------
When constructed with a :class:`~repro.simulation.clock.SimClock` (the
remote-RPC backend shares one), the overlap window is charged
faithfully: maintenance and prefetch RPCs advance the clock — including
any retry/timeout/backoff time on a faulty link — and GPU compute of
``gpu_batch_time_s`` is then charged *overlapping* that work via
:meth:`SimClock.advance_overlapping`, so the window costs
``max(ps_work, gpu)`` instead of their sum. With ``lookahead=0`` the
pipeline degrades to the strictly serial schedule (maintain on the
critical path, GPU charged separately), which is the baseline the
benchmarks compare against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.config import PrefetchConfig
from repro.core.backend import TrainBackend, check_backend
from repro.core.cache import MaintainResult
from repro.errors import ConfigError, ServerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.clock import SimClock
from repro.simulation.metrics import Metrics, PrefetchStats


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
        config: lookahead depth / patching / buffer cap.
        dim: embedding dimension of the buffered rows.
        keys_for_batch: deterministic peek into the workload stream —
            returns the key array (any shape) of a future global batch.
        clock: optional shared simulated clock for overlap accounting.
        gpu_batch_time_s: simulated GPU forward+backward time that the
            overlap window hides PS work behind (0 disables timing).
        horizon: last batch id that will ever be trained; the window is
            clipped to it so prefetch never creates entries for batches
            that no serial run would touch. ``None`` = unbounded
            (set by ``SynchronousTrainer.train``).
        tracer: span sink for demand/overlap/patch phases; the overlap
            window additionally emits a ``gpu.compute`` span on the
            ``gpu`` track so traces show PS work hidden behind it.
        metrics: share a :class:`~repro.simulation.metrics.Metrics`
            bundle — the pipeline then accumulates into its
            ``prefetch`` sub-bundle instead of a private one.
    """

    def __init__(
        self,
        backend: TrainBackend,
        config: PrefetchConfig,
        dim: int,
        keys_for_batch: Callable[[int], np.ndarray],
        *,
        clock: SimClock | None = None,
        gpu_batch_time_s: float = 0.0,
        horizon: int | None = None,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
    ):
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}")
        if gpu_batch_time_s < 0:
            raise ConfigError("gpu_batch_time_s must be non-negative")
        self.backend = check_backend(backend, role="train")
        self.config = config
        self.dim = dim
        self.keys_for_batch = keys_for_batch
        self.clock = clock
        self.gpu_batch_time_s = float(gpu_batch_time_s)
        self.horizon = horizon
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = metrics.prefetch if metrics is not None else PrefetchStats()
        self._buffer: dict[int, np.ndarray] = {}
        self._window: set[int] = set()
        self._pushed: set[int] = set()

    # ------------------------------------------------------------------
    # step protocol
    # ------------------------------------------------------------------

    def begin_batch(self, batch_id: int, keys: np.ndarray) -> None:
        """Demand-pull the batch's keys that are not validly buffered.

        Tagged ``batch_id``: these are the only pulls of the batch on
        the critical path, and the ones its ``maintain`` round will
        process. Under warm lookahead the demand set is (near) empty.
        """
        flat = np.asarray(keys).reshape(-1)
        missing = self._missing_in_order(flat)
        self.stats.demand_keys += len(missing)
        self.stats.buffer_hits += int(flat.size) - len(missing)
        if missing:
            with self.tracer.span(
                "prefetch.demand",
                track="prefetch",
                batch=batch_id,
                keys=len(missing),
            ):
                self._pull_into_buffer(missing, batch_id)

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
        out = np.empty((*key_matrix.shape, self.dim), dtype=np.float32)
        for i in range(key_matrix.shape[0]):
            for j in range(key_matrix.shape[1]):
                key = int(key_matrix[i, j])
                row = self._buffer.get(key)
                if row is None:
                    raise ServerError(
                        f"key {key} not buffered; begin_batch not run?"
                    )
                out[i, j] = row
        return out

    def run_overlap(self, batch_id: int) -> list[MaintainResult]:
        """The overlap window: deferred maintain + lookahead prefetch.

        Runs ``maintain(batch_id)`` (Algorithm 2's deferred round) and
        then prefetches the deduplicated keys of the next ``lookahead``
        batches, tagged ``batch_id + 1``. On a clocked backend the
        whole window is charged overlapping ``gpu_batch_time_s``. With
        ``lookahead == 0`` this is the strictly serial schedule:
        maintain sits on the critical path and GPU time follows it.
        """
        if not self.config.enabled:
            with self.tracer.span(
                "prefetch.maintain", track="maintainer", batch=batch_id
            ):
                results = self.backend.maintain(batch_id)
            self._window = set()
            if self.clock is not None and self.gpu_batch_time_s > 0:
                gpu_start = self.clock.now
                self.clock.advance(self.gpu_batch_time_s)
                self.tracer.add_span(
                    "gpu.compute",
                    start=gpu_start,
                    duration=self.gpu_batch_time_s,
                    track="gpu",
                    batch=batch_id,
                )
            return results

        start = self.clock.now if self.clock is not None else 0.0
        with self.tracer.span(
            "prefetch.maintain", track="maintainer", batch=batch_id
        ):
            results = self.backend.maintain(batch_id)
        window_keys = self._peek_window(batch_id)
        self._window = window_keys
        candidates = sorted(window_keys - self._buffer.keys())
        self.stats.deduped_keys += len(window_keys) - len(candidates)
        cap = self.config.max_buffer_entries
        if cap is not None:
            room = max(0, cap - len(self._buffer))
            candidates = candidates[:room]
        if candidates:
            with self.tracer.span(
                "prefetch.prefetch_pull",
                track="maintainer",
                batch=batch_id,
                keys=len(candidates),
            ):
                self._pull_into_buffer(candidates, batch_id + 1)
            self.stats.prefetch_keys += len(candidates)
        if self.clock is not None and self.gpu_batch_time_s > 0:
            work = self.clock.now - start
            self.clock.advance_overlapping(start, self.gpu_batch_time_s)
            self.stats.overlap_hidden_seconds += min(
                work, self.gpu_batch_time_s
            )
            # GPU compute starts when the overlap window opens — the
            # trace shows maintainer-track work riding underneath it.
            self.tracer.add_span(
                "gpu.compute",
                start=start,
                duration=self.gpu_batch_time_s,
                track="gpu",
                batch=batch_id,
                hidden_s=min(work, self.gpu_batch_time_s),
            )
        return results

    def push(
        self, keys: Sequence[int], grads: np.ndarray | None, batch_id: int
    ) -> int:
        """Forward a push and invalidate every touched buffered key.

        Invalidation is the first half of the staleness invariant: a
        pushed key's buffered copy is stale and must never be served
        again. :meth:`end_batch` (eager) or the next
        :meth:`begin_batch` (lazy) re-pulls it.
        """
        updated = self.backend.push(keys, grads, batch_id)
        for key in np.asarray(keys).tolist():
            self._pushed.add(key)
            if self._buffer.pop(key, None) is not None:
                self.stats.invalidated_keys += 1
        return updated

    def end_batch(self, batch_id: int) -> None:
        """Patch pushed window keys and prune the buffer.

        With eager patching, every pushed key still scheduled inside
        the lookahead window is re-pulled now (tagged ``batch_id + 1``,
        after this batch's maintenance round), restoring the second
        half of the staleness invariant off the next batch's critical
        path. The buffer is then pruned to the window, bounding it to
        roughly ``lookahead`` batches' worth of distinct keys.
        """
        if self.config.patch and self.config.enabled:
            to_patch = sorted(self._pushed & self._window)
            if to_patch:
                with self.tracer.span(
                    "prefetch.patch",
                    track="prefetch",
                    batch=batch_id,
                    keys=len(to_patch),
                ):
                    self._pull_into_buffer(to_patch, batch_id + 1)
                self.stats.patched_keys += len(to_patch)
        if self._window:
            self._buffer = {
                key: row
                for key, row in self._buffer.items()
                if key in self._window
            }
        else:
            self._buffer.clear()
        self._pushed.clear()
        self.stats.batches += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def buffered_keys(self) -> int:
        """Distinct keys currently held in the lookahead buffer."""
        return len(self._buffer)

    def validate(self) -> None:
        """No buffered key may be marked pushed-but-unpatched."""
        stale = self._pushed & self._buffer.keys()
        if stale:
            raise ServerError(
                f"staleness invariant violated for keys {sorted(stale)[:8]}"
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _missing_in_order(self, flat: np.ndarray) -> list[int]:
        """Unique keys absent from the buffer, first-appearance order."""
        seen: set[int] = set()
        missing: list[int] = []
        for key in flat.tolist():
            key = int(key)
            if key in seen or key in self._buffer:
                continue
            seen.add(key)
            missing.append(key)
        return missing

    def _peek_window(self, batch_id: int) -> set[int]:
        """Deduplicated keys of batches ``batch_id+1 .. batch_id+L``."""
        last = batch_id + self.config.lookahead
        if self.horizon is not None:
            last = min(last, self.horizon)
        window: set[int] = set()
        for future in range(batch_id + 1, last + 1):
            keys = np.asarray(self.keys_for_batch(future)).reshape(-1)
            window.update(int(k) for k in keys.tolist())
        return window

    def _pull_into_buffer(self, keys: list[int], tag: int) -> None:
        result = self.backend.pull(keys, tag)
        if result.weights is None:
            raise ConfigError(
                "prefetch pipeline requires a value-mode backend"
            )
        for i, key in enumerate(keys):
            self._buffer[int(key)] = np.array(result.weights[i], copy=True)
