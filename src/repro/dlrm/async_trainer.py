"""Asynchronous DLRM training — first-class bounded-staleness mode.

Section II describes the two synchronization patterns: synchronous
(every worker waits at batch boundaries — the paper's choice, better
convergence) and asynchronous (workers never wait — higher throughput,
staler gradients). This module makes the asynchronous pattern a
defensible first-class mode instead of a toy:

* each worker pulls weights, computes gradients, and pushes them
  ``staleness`` scheduler steps later — by which time other workers'
  updates have already landed (the classic stale-gradient effect);
* with ``track_progress`` on, every pull carries the worker's identity
  and progress so the PS enforces *bounded* staleness: a worker more
  than ``k`` batches behind the slowest other admitted worker gets a
  typed :class:`~repro.errors.StalenessError` and must fast-forward
  (abandon its stale cursor, re-sync progress) before it may read
  weights again;
* a :class:`~repro.failure.injection.WorkerFaultProfile` per worker
  injects the hostile-worker taxonomy — stragglers, delayed and
  duplicated pushes, Byzantine gradients — all seeded, so a chaos run
  is exactly reproducible; the PS-side
  :class:`~repro.core.aggregators.AggregationBuffer` is the defense;
* there is no global batch boundary, so checkpoints taken without
  quiescing are NOT batch-consistent (the asynchronous-checkpoint
  caveat the paper cites when motivating synchronous checkpoints) —
  taking one now warns and counts
  ``repro_async_unquiesced_checkpoints_total``.

The scheduler is deterministic (round-robin), so runs are reproducible
and tests can compare against synchronous training exactly.
"""

from __future__ import annotations

import inspect
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config import PrefetchConfig
from repro.core.backend import TrainBackend, check_backend
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam, DenseOptimizer
from repro.dlrm.prefetch import PrefetchPipeline
from repro.errors import ConfigError, StalenessError
from repro.failure.injection import WorkerFaultProfile
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.clock import SimClock


@dataclass
class _PendingWork:
    """A computed gradient waiting out its staleness delay."""

    worker: int
    step_computed: int
    keys: object  # the pull's KeyPlan, or the flat key array
    embedding_grads: np.ndarray
    dense_grads: list[np.ndarray]
    loss: float
    seq: int = 0  # push identity; 0 = anonymous (no dedup)
    delay_extra: int = 0  # injected extra staleness (delayed push)
    duplicate: bool = False  # injected duplicated push (same seq)
    byzantine: bool = False  # embedding grads were corrupted


@dataclass
class AsyncRunStats:
    """Fault-injection and admission accounting for one trainer."""

    steps: int = 0
    straggle_skips: int = 0
    staleness_rejects: int = 0
    skipped_batches: int = 0
    delayed_pushes: int = 0
    duplicate_pushes: int = 0
    byzantine_pushes: int = 0
    unquiesced_checkpoints: int = 0
    rejects_by_worker: dict = field(default_factory=dict)


class AsynchronousTrainer:
    """Round-robin asynchronous training against a shared PS.

    Args:
        backend: the embedding parameter server — anything implementing
            the :class:`~repro.core.backend.TrainBackend` protocol.
        model: the dense DeepFM (no first-order term).
        dataset: deterministic batch source; worker ``w`` consumes the
            global batches ``w, w + W, w + 2W, ...`` — at scheduler
            step ``s`` the computing worker trains global batch ``s``.
        num_workers: concurrent workers.
        batch_size: samples per worker step.
        staleness: scheduler steps between a worker computing gradients
            and those gradients being applied. 0 applies immediately
            (still asynchronous: no cross-worker averaging or barrier).
        dense_optimizer: optimizer for the shared (hogwild-style) MLP.
        prefetch: optional lookahead prefetch configuration; because
            the round-robin schedule is deterministic, future scheduler
            steps' key sets are peekable exactly as in the synchronous
            trainer. Incompatible with ``track_progress`` / fault
            injection (the pipeline's pulls are anonymous).
        clock: optional simulated clock; each scheduler slot (compute
            or straggle stall) advances it by ``gpu_batch_time_s``.
        gpu_batch_time_s: simulated per-step compute time.
        track_progress: send ``(worker_id, progress)`` on every pull
            and ``(worker_id, seq)`` on every push, enabling the PS's
            bounded-staleness admission and robust aggregation. ``None``
            (default) auto-detects: on when the backend has a staleness
            bound or an aggregation buffer configured, or when
            ``worker_faults`` are given; off otherwise (bit-compatible
            with the pre-first-class trainer).
        worker_faults: ``{worker_id: WorkerFaultProfile}`` hostile
            fleet; workers without an entry are honest.
        tracer: span/event sink (``async.*`` spans).
        registry: metrics sink (``repro_async_*`` counters).
    """

    def __init__(
        self,
        backend: TrainBackend | None = None,
        model: DeepFM | None = None,
        dataset: CriteoSynthetic | None = None,
        num_workers: int = 2,
        batch_size: int = 32,
        staleness: int = 1,
        dense_optimizer: DenseOptimizer | None = None,
        *,
        prefetch: PrefetchConfig | None = None,
        clock: SimClock | None = None,
        gpu_batch_time_s: float = 0.0,
        track_progress: bool | None = None,
        worker_faults: dict[int, WorkerFaultProfile] | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if backend is None or model is None or dataset is None:
            raise ConfigError("backend, model and dataset are required")
        if num_workers <= 0 or batch_size <= 0:
            raise ConfigError("num_workers and batch_size must be positive")
        if staleness < 0:
            raise ConfigError("staleness must be non-negative")
        if model.use_first_order:
            raise ConfigError("async trainer supports models without first-order")
        self.backend = check_backend(backend, role="train")
        self.model = model
        self.dataset = dataset
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.staleness = staleness
        self.dense_optimizer = dense_optimizer or Adam()
        self.clock = clock
        self.gpu_batch_time_s = gpu_batch_time_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        self.step = 0
        self._next_batch_per_worker = list(range(num_workers))
        self._pending: deque[_PendingWork] = deque()
        self.loss_history: list[float] = []
        self.stats = AsyncRunStats()

        self.worker_faults = dict(worker_faults or {})
        if any(w < 0 or w >= num_workers for w in self.worker_faults):
            raise ConfigError("worker_faults keys must be valid worker ids")
        self._fault_rngs = {
            w: profile.rng_for(w) for w, profile in self.worker_faults.items()
        }
        self._sleep_until = [0] * num_workers
        #: Highest batch_id any push has carried — the checkpoint target
        #: must cover it or recovery would discard the flushed updates.
        self._last_push_batch = -1
        #: Batches completed per worker — the progress the PS admission
        #: check sees on every pull.
        self._completed = [0] * num_workers
        self._seq = 0

        supports_identity = self._backend_supports_identity(backend)
        if track_progress is None:
            track_progress = bool(self.worker_faults) or (
                supports_identity and self._backend_wants_identity(backend)
            )
        if track_progress and not supports_identity:
            raise ConfigError(
                "track_progress requires a backend whose pull/push accept "
                "worker_id (OpenEmbeddingServer / RemotePSClient)"
            )
        self.track_progress = track_progress

        self.pipeline: PrefetchPipeline | None = None
        if prefetch is not None:
            if self.track_progress:
                raise ConfigError(
                    "prefetch is not supported with track_progress / "
                    "worker_faults: pipeline pulls are anonymous and would "
                    "bypass the bounded-staleness admission check"
                )
            self.pipeline = PrefetchPipeline(
                backend,
                prefetch,
                model.dim,
                # At scheduler step s the computing worker trains global
                # batch s, so the peek function is the step index itself.
                lambda s: self.dataset.batch(self.batch_size, s).keys,
                clock=clock,
                gpu_batch_time_s=gpu_batch_time_s,
            )

    @staticmethod
    def _backend_supports_identity(backend) -> bool:
        """Do pull/push accept the worker-identity keywords?"""
        try:
            pull_params = inspect.signature(backend.pull).parameters
            push_params = inspect.signature(backend.push).parameters
        except (TypeError, ValueError):
            return False
        return "worker_id" in pull_params and "worker_id" in push_params

    @staticmethod
    def _backend_wants_identity(backend) -> bool:
        """Is a staleness bound or aggregation buffer configured?"""
        for node in getattr(backend, "nodes", []) or []:
            controller = getattr(node, "staleness", None)
            if controller is not None and controller.bound is not None:
                return True
            if getattr(node, "aggregation", None) is not None:
                return True
        return False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def run_steps(self, steps: int) -> list[float]:
        """Run ``steps`` scheduler steps; returns the losses computed.

        A step where the scheduled worker is stalled (straggler
        injection) computes nothing, so the returned list may be
        shorter than ``steps``.
        """
        if self.pipeline is not None:
            self.pipeline.horizon = self.step + steps - 1
        losses = []
        for __ in range(steps):
            losses.extend(self._one_step())
        return losses

    def _one_step(self) -> list[float]:
        """One scheduler step: apply due pushes, then one worker computes."""
        self._apply_due_pushes()
        worker = self.step % self.num_workers
        self.stats.steps += 1
        self._count("repro_async_steps_total")
        if self._stalled(worker):
            # The slot passes unused; simulated time still elapses.
            self.stats.straggle_skips += 1
            self._count("repro_async_straggle_steps_total")
            self._advance_clock()
            self.step += 1
            return []
        loss = self._compute(worker)
        self.step += 1
        return [loss]

    def _stalled(self, worker: int) -> bool:
        """Straggler injection: is this worker asleep for its turn?"""
        profile = self.worker_faults.get(worker)
        if profile is None:
            return False
        if self.step < self._sleep_until[worker]:
            return True
        if profile.straggle_prob > 0 and (
            self._fault_rngs[worker].random() < profile.straggle_prob
        ):
            self._sleep_until[worker] = self.step + profile.straggle_steps
            self.tracer.instant(
                "async.straggle", track="async", worker=worker,
                until=self._sleep_until[worker],
            )
            return True
        return False

    def _compute(self, worker: int) -> float:
        batch_index = self._next_batch_per_worker[worker]
        self._next_batch_per_worker[worker] += self.num_workers
        batch = self.dataset.batch(self.batch_size, batch_index)
        with self.tracer.span(
            "async.step", track="async", worker=worker, batch=batch_index
        ):
            if self.pipeline is not None:
                # run_overlap advances the shared clock itself.
                self.pipeline.begin_batch(self.step, batch.keys)
                embeddings = self.pipeline.gather(batch.keys)
                self.pipeline.run_overlap(self.step)
                keys = batch.keys.reshape(-1)
            else:
                # Routed once: the delayed push reuses the pull's plan.
                keys = self._plan(batch.keys.reshape(-1))
                pulled = self._pull(worker, keys)
                self.backend.maintain(self.step)
                embeddings = pulled.weights.reshape(
                    self.batch_size, self.model.num_fields, self.model.dim
                )
                self._advance_clock()
            self.model.zero_grad()
            grads = self.model.train_batch(embeddings, batch.labels)
            self._enqueue_push(worker, keys, grads)
        self._completed[worker] += 1
        self.loss_history.append(grads.loss)
        if self.staleness == 0:
            self._apply_due_pushes()
        if self.pipeline is not None:
            self.pipeline.end_batch(self.step)
        return grads.loss

    def _plan(self, flat_keys):
        """The backend's :class:`~repro.core.sharding.KeyPlan` of
        ``flat_keys``; the array itself for a backend without ``plan``."""
        planner = getattr(self.backend, "plan", None)
        return flat_keys if planner is None else planner(flat_keys)

    def _pull(self, worker: int, flat_keys):
        """One admission-checked pull; fast-forwards on rejection.

        A :class:`StalenessError` means this worker's basis is too old:
        it abandons the batches it fell behind on (they are *skipped*,
        not retrained — the bounded-staleness contract trades their
        contribution for freshness), re-syncs its progress to the
        fleet's maximum, and retries once.
        """
        if not self.track_progress:
            return self.backend.pull(flat_keys, self.step)
        try:
            return self.backend.pull(
                flat_keys, self.step,
                worker_id=worker, progress=self._completed[worker],
            )
        except StalenessError as exc:
            self.stats.staleness_rejects += 1
            self.stats.rejects_by_worker[worker] = (
                self.stats.rejects_by_worker.get(worker, 0) + 1
            )
            self._count("repro_async_staleness_rejects_total")
            fleet_max = max(self._completed)
            skipped = max(0, fleet_max - self._completed[worker])
            self.stats.skipped_batches += skipped
            self._count("repro_async_skipped_batches_total", skipped)
            self.tracer.instant(
                "async.staleness_reject", track="async", worker=worker,
                lag=exc.lag, bound=exc.bound, skipped=skipped,
            )
            self._completed[worker] = fleet_max
            return self.backend.pull(
                flat_keys, self.step,
                worker_id=worker, progress=self._completed[worker],
            )

    def _enqueue_push(self, worker: int, keys, grads) -> None:
        """Queue this step's gradients, applying the fault profile."""
        profile = self.worker_faults.get(worker)
        embedding_grads = grads.embedding_grads
        dense_grads = [np.array(g, copy=True) for g in self.model.mlp.gradients()]
        delay_extra = 0
        duplicate = False
        byzantine = False
        if profile is not None:
            rng = self._fault_rngs[worker]
            if profile.is_byzantine:
                # Corrupt only the PS-bound embedding gradients — the
                # PS-side defense layer is what chaos runs isolate. The
                # shared MLP is outside the PS's jurisdiction, so a
                # Byzantine worker contributes no dense update at all.
                embedding_grads = profile.corrupt(
                    np.asarray(embedding_grads, dtype=np.float32), rng
                )
                dense_grads = [np.zeros_like(g) for g in dense_grads]
                byzantine = True
                self.stats.byzantine_pushes += 1
                self._count("repro_async_byzantine_pushes_total")
            if profile.delay_prob > 0 and rng.random() < profile.delay_prob:
                delay_extra = profile.delay_steps
                self.stats.delayed_pushes += 1
                self._count("repro_async_delayed_pushes_total")
            if profile.duplicate_prob > 0 and rng.random() < profile.duplicate_prob:
                duplicate = True
        if self.track_progress:
            self._seq += 1
            seq = self._seq
        else:
            seq = 0
        self._pending.append(
            _PendingWork(
                worker=worker,
                step_computed=self.step,
                keys=keys,
                embedding_grads=embedding_grads,
                dense_grads=dense_grads,
                loss=grads.loss,
                seq=seq,
                delay_extra=delay_extra,
                duplicate=duplicate,
                byzantine=byzantine,
            )
        )

    def _push(self, work: _PendingWork) -> None:
        """Apply one delayed gradient (through the pipeline if present)."""
        self._last_push_batch = max(self._last_push_batch, self.step)
        keys = work.keys
        flat_grads = work.embedding_grads.reshape(-1, self.model.dim)
        if self.pipeline is not None:
            # Routing through the pipeline invalidates buffered copies
            # of the touched keys — the staleness invariant for the
            # async flow, where pushes land mid-schedule.
            self.pipeline.push(keys, flat_grads, self.step)
        elif self.track_progress:
            self.backend.push(
                keys, flat_grads, self.step,
                worker_id=work.worker, seq=work.seq,
            )
            if work.duplicate:
                # Same (worker_id, seq) identity on purpose: the dedup
                # windows (RPC reply cache, aggregation buffer) must
                # absorb the copy so the gradient lands exactly once.
                self.stats.duplicate_pushes += 1
                self._count("repro_async_duplicate_pushes_total")
                self.backend.push(
                    keys, flat_grads, self.step,
                    worker_id=work.worker, seq=work.seq,
                )
        else:
            self.backend.push(keys, flat_grads, self.step)
        if not work.byzantine:
            self.dense_optimizer.step(
                self.model.mlp.parameters(), work.dense_grads
            )

    def _apply_due_pushes(self) -> None:
        """Push everything whose (base + injected) delay has elapsed.

        Delayed pushes must not head-of-line-block punctual ones, so
        the whole queue is scanned; relative order of due pushes is
        preserved.
        """
        remaining: deque[_PendingWork] = deque()
        while self._pending:
            work = self._pending.popleft()
            if (
                self.step - work.step_computed
                >= self.staleness + work.delay_extra
            ):
                self._push(work)
            else:
                remaining.append(work)
        self._pending = remaining

    def _advance_clock(self) -> None:
        if self.clock is not None and self.gpu_batch_time_s > 0:
            self.clock.advance(self.gpu_batch_time_s)

    def _count(self, name: str, value: int = 1) -> None:
        if self.registry is not None and value:
            self.registry.counter(name).add(value)

    # ------------------------------------------------------------------
    # checkpoints: the asynchronous caveat
    # ------------------------------------------------------------------

    def checkpoint(self, quiesce: bool = True) -> int:
        """Take a checkpoint.

        With ``quiesce=True`` all in-flight gradients are applied and
        the PS's aggregation buffers are folded first (training pauses
        — effectively a momentary synchronous barrier), so the snapshot
        is consistent. With ``quiesce=False`` the snapshot is taken
        while pushes are still in flight — the asynchronous-checkpoint
        behaviour whose inconsistency the paper cites; the recovered
        state will have absorbed some workers' updates and not others'.
        The hazard is observable: it warns and counts
        ``repro_async_unquiesced_checkpoints_total``.

        Returns the number of in-flight gradients NOT captured.
        """
        in_flight = len(self._pending)
        if quiesce:
            while self._pending:
                self._push(self._pending.popleft())
            flush = getattr(self.backend, "flush_aggregation", None)
            if flush is not None:
                flush()
            in_flight = 0
        else:
            self.stats.unquiesced_checkpoints += 1
            self._count("repro_async_unquiesced_checkpoints_total")
            warnings.warn(
                "asynchronous checkpoint without quiesce: "
                f"{in_flight} in-flight gradient(s) will land AFTER the "
                "snapshot, so the durable state is not batch-consistent "
                "(pass quiesce=True for a recoverable barrier checkpoint)",
                RuntimeWarning,
                stacklevel=2,
            )
        # The target must cover every batch id a push carried (the
        # quiesce flush above pushes at self.step, one past the last
        # computed step) — anything newer than the target would be
        # DISCARDED by crash recovery's version scan.
        target = max(self._last_push_batch, self.step - 1, 0)
        self.backend.request_checkpoint(target)
        self.backend.complete_pending_checkpoints()
        return in_flight

    @property
    def pending_pushes(self) -> int:
        return len(self._pending)

    @property
    def progress(self) -> list[int]:
        """Batches completed per worker (what pulls report to the PS)."""
        return list(self._completed)
