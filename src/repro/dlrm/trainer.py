"""Synchronous multi-worker DLRM training (functional).

Emulates the paper's deployment: ``num_workers`` GPU workers train one
DeepFM data-parallel over a shared parameter server. Each synchronous
step runs the protocol of Figure 5:

1. every worker pulls its shard's embeddings (the pull burst),
2. the PS runs its (pipelined) cache-maintenance round,
3. workers compute forward/backward and push embedding gradients (the
   update burst); dense gradients are all-reduced (averaged) and
   applied to the replicated MLP.

Checkpointing pairs TensorFlow-style dense snapshots (Table IV: "dense
features: Tensorflow's checkpoint") with the server's batch-aware
sparse checkpoint, both tagged with the same batch id, so crash
recovery restores a single consistent training state and training can
resume deterministically — the dataset is indexed by batch id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.core.backend import TrainBackend, check_backend
from repro.core.optimizers import PSOptimizer
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.embedding import PSEmbedding
from repro.dlrm.optimizers import Adam, DenseOptimizer
from repro.dlrm.prefetch import PrefetchPipeline
from repro.errors import CheckpointError, ConfigError, RecoveryError
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class TrainerCheckpoint:
    """A dense-side snapshot paired with a sparse checkpoint request."""

    batch_id: int
    dense_state: list[np.ndarray]
    optimizer_state: dict


@dataclass
class DenseCheckpointStore:
    """Durable store for dense snapshots (the 'checkpoint files').

    Lives outside the crash boundary — like TensorFlow checkpoints on
    backup storage, these survive a process crash.
    """

    snapshots: dict[int, TrainerCheckpoint] = field(default_factory=dict)
    keep_last: int = 4

    def save(self, snapshot: TrainerCheckpoint) -> None:
        self.snapshots[snapshot.batch_id] = snapshot
        while len(self.snapshots) > self.keep_last:
            del self.snapshots[min(self.snapshots)]

    def load(self, batch_id: int) -> TrainerCheckpoint:
        if batch_id not in self.snapshots:
            raise RecoveryError(f"no dense snapshot for batch {batch_id}")
        return self.snapshots[batch_id]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one synchronous training step."""

    batch_id: int
    loss: float
    requests: int


class SynchronousTrainer:
    """Trains a DeepFM against any :class:`~repro.core.backend.TrainBackend`.

    Args:
        backend: the embedding parameter server — anything implementing
            the :class:`~repro.core.backend.TrainBackend` protocol
            (:class:`OpenEmbeddingServer`, a
            :class:`~repro.network.frontend.RemotePSClient`, or a
            baseline).
        model: the dense DeepFM (built without the first-order term
            unless ``first_order_server`` is given).
        dataset: deterministic batch source.
        num_workers: simulated GPU workers (data-parallel shards).
        batch_size: samples per worker per step.
        dense_optimizer: optimizer for the MLP (default Adam).
        first_order_server: optional dim-1 PS holding the FM
            first-order weights (always trained on the serial path).
        checkpoint_every: request a checkpoint every N batches (None =
            manual only).
        prefetch: lookahead prefetch configuration. ``None`` or
            lookahead 0 keeps the classic serial protocol (pull →
            maintain → push, every worker's keys pulled each step).
            Lookahead ``>= 1`` routes pulls through a
            :class:`PrefetchPipeline`: demand misses on the critical
            path, maintenance + next-window prefetch inside the overlap
            window. Final weights are bit-identical either way; only
            the request traffic changes.
        tracer: span sink for per-step phases (``train.step`` /
            ``train.pull`` / ``train.compute`` / ``train.push`` /
            ``train.checkpoint``); shared with the prefetch pipeline.
    """

    def __init__(
        self,
        backend: TrainBackend | None = None,
        model: DeepFM | None = None,
        dataset: CriteoSynthetic | None = None,
        num_workers: int = 2,
        batch_size: int = 64,
        dense_optimizer: DenseOptimizer | None = None,
        first_order_server: OpenEmbeddingServer | None = None,
        checkpoint_every: int | None = None,
        *,
        prefetch: PrefetchConfig | None = None,
        tracer: Tracer | None = None,
    ):
        if backend is None or model is None or dataset is None:
            raise ConfigError("backend, model and dataset are required")
        if num_workers <= 0 or batch_size <= 0:
            raise ConfigError("num_workers and batch_size must be positive")
        if getattr(model, "use_first_order", False) and first_order_server is None:
            raise ConfigError(
                "model uses the first-order FM term; pass first_order_server"
            )
        self.backend = check_backend(backend, role="train")
        self.model = model
        self.dataset = dataset
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.dense_optimizer = dense_optimizer or Adam()
        self.embedding = PSEmbedding(backend, model.dim)
        self.first_order_server = first_order_server
        self.first_order = (
            PSEmbedding(first_order_server, 1) if first_order_server else None
        )
        self.checkpoint_every = checkpoint_every
        self.dense_checkpoints = DenseCheckpointStore()
        self.next_batch = 0
        self.loss_history: list[float] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pipeline: PrefetchPipeline | None = None
        if prefetch is not None and prefetch.enabled:
            self.pipeline = PrefetchPipeline(
                backend,
                prefetch,
                model.dim,
                self._keys_for_batch,
                tracer=self.tracer,
            )
        # The update burst goes through the pipeline when there is one,
        # so every pushed key's buffered copy is invalidated.
        self._push_embedding = (
            PSEmbedding(self.pipeline, model.dim)
            if self.pipeline is not None
            else self.embedding
        )

    def _keys_for_batch(self, batch_id: int) -> np.ndarray:
        """Deterministic peek into the global-batch key stream."""
        return self.dataset.batch(
            self.batch_size * self.num_workers, batch_id
        ).keys

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def step(self) -> StepResult:
        """Run one synchronous step over ``num_workers`` worker shards."""
        with self.tracer.span("train.step", batch=self.next_batch) as span:
            result = self._step()
            span.set(loss=result.loss, requests=result.requests)
            return result

    def _step(self) -> StepResult:
        batch_id = self.next_batch
        global_batch = self.dataset.batch(
            self.batch_size * self.num_workers, batch_id
        )
        shards = [
            (
                global_batch.keys[w * self.batch_size : (w + 1) * self.batch_size],
                global_batch.labels[w * self.batch_size : (w + 1) * self.batch_size],
                global_batch.dense[w * self.batch_size : (w + 1) * self.batch_size],
            )
            for w in range(self.num_workers)
        ]

        # Phase 1: the pull burst — every worker pulls simultaneously.
        # Each worker's key matrix is routed once; its push reuses the
        # plan. On the pipelined path, demand misses are pulled once
        # (deduped) and the shards are served from the lookahead buffer.
        with self.tracer.span("train.pull", batch=batch_id):
            if self.pipeline is not None:
                self.pipeline.begin_batch(batch_id, global_batch.keys)
                planned = [keys for keys, *__ in shards]
                pulled = [self.pipeline.gather(keys) for keys in planned]
            else:
                planned = [self.embedding.plan(keys) for keys, *__ in shards]
                pulled = [self.embedding.pull(plan, batch_id) for plan in planned]
            first_pulled = None
            if self.first_order is not None:
                first_pulled = [
                    self.first_order.pull(keys, batch_id) for keys, *__ in shards
                ]
                self.first_order_server.maintain(batch_id)

        # Phase 2: the PS maintenance round, overlapped with GPU compute
        # in the performance model; functionally it runs here, between
        # the batch's pulls and its updates (Algorithm 2's lock order).
        # The pipeline folds next-window prefetch into the same overlap.
        if self.pipeline is not None:
            self.pipeline.run_overlap(batch_id)
        else:
            self.backend.maintain(batch_id)

        # Phase 3: per-worker compute, then the update burst. Dense
        # gradients accumulate across workers (allreduce-sum) and are
        # averaged; sparse gradients are scaled by 1/num_workers so the
        # effective loss is the global-batch mean.
        self.model.zero_grad()
        losses = []
        requests = 0
        with self.tracer.span("train.compute", batch=batch_id):
            worker_grads = []
            for w, (keys, labels, dense) in enumerate(shards):
                if getattr(self.model, "uses_dense_features", False):
                    grads = self.model.train_batch(pulled[w], labels, dense)
                else:
                    first = first_pulled[w] if first_pulled is not None else None
                    grads = self.model.train_batch(pulled[w], labels, first)
                losses.append(grads.loss)
                worker_grads.append(grads)
        with self.tracer.span("train.push", batch=batch_id):
            for w, (keys, labels, dense) in enumerate(shards):
                grads = worker_grads[w]
                scale = 1.0 / self.num_workers
                self._push_embedding.push(
                    planned[w], grads.embedding_grads * scale, batch_id
                )
                if self.first_order is not None:
                    self.first_order.push(
                        keys, grads.first_order_grads * scale, batch_id
                    )
                requests += keys.size
            params = self.model.mlp.parameters()
            grads_dense = [
                g / self.num_workers for g in self.model.mlp.gradients()
            ]
            self.dense_optimizer.step(params, grads_dense)
            if self.pipeline is not None:
                self.pipeline.end_batch(batch_id)

        self.next_batch += 1
        loss = float(np.mean(losses))
        self.loss_history.append(loss)
        if (
            self.checkpoint_every is not None
            and (batch_id + 1) % self.checkpoint_every == 0
        ):
            with self.tracer.span(
                "train.checkpoint", track="checkpoint", batch=batch_id
            ):
                self.request_checkpoint()
        return StepResult(batch_id=batch_id, loss=loss, requests=requests)

    def train(self, num_batches: int) -> list[StepResult]:
        """Run ``num_batches`` steps; returns their results.

        With a prefetch pipeline the lookahead horizon is clipped to
        the last batch this call will train, so prefetch never creates
        server entries a serial run would not have.
        """
        if self.pipeline is not None:
            self.pipeline.horizon = self.next_batch + num_batches - 1
        return [self.step() for __ in range(num_batches)]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def request_checkpoint(self) -> int:
        """Queue a checkpoint of the latest trained batch.

        The sparse side completes in the cache-maintenance rounds after
        the request; the dense snapshot is taken now (training is at a
        batch boundary, so the state is exactly batch ``b``'s).
        """
        if self.next_batch == 0:
            raise CheckpointError("nothing trained yet")
        batch_id = self.next_batch - 1
        self.backend.request_checkpoint(batch_id)
        if self.first_order_server is not None:
            self.first_order_server.request_checkpoint(batch_id)
        self.dense_checkpoints.save(
            TrainerCheckpoint(
                batch_id=batch_id,
                dense_state=self.model.dense_state(),
                optimizer_state=self.dense_optimizer.state(),
            )
        )
        return batch_id

    def barrier_checkpoint(self) -> int:
        """Checkpoint and force completion (clean-shutdown semantics)."""
        batch_id = self.request_checkpoint()
        self.backend.complete_pending_checkpoints()
        if self.first_order_server is not None:
            self.first_order_server.complete_pending_checkpoints()
        return batch_id

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self):
        """Kill every process; returns what survives.

        Returns ``(sparse_pools, first_order_pools, dense_checkpoints)``
        — the PMem DIMM contents and the dense checkpoint files.
        """
        pools = self.backend.crash()
        first_pools = (
            self.first_order_server.crash()
            if self.first_order_server is not None
            else None
        )
        return pools, first_pools, self.dense_checkpoints

    @classmethod
    def recover(
        cls,
        pools,
        dense_checkpoints: DenseCheckpointStore,
        *,
        model: DeepFM,
        dataset: CriteoSynthetic,
        server_config: ServerConfig,
        cache_config: CacheConfig | None = None,
        ps_optimizer: PSOptimizer | None = None,
        first_order_pools=None,
        first_order_config: ServerConfig | None = None,
        num_workers: int = 2,
        batch_size: int = 64,
        dense_optimizer: DenseOptimizer | None = None,
        checkpoint_every: int | None = None,
        prefetch: PrefetchConfig | None = None,
        tracer: Tracer | None = None,
    ) -> "SynchronousTrainer":
        """Rebuild a trainer from surviving state.

        The sparse side recovers to the newest cluster-wide checkpoint;
        the matching dense snapshot is loaded; training resumes at the
        following batch. Because the dataset is deterministic by batch
        id, resumed training replays exactly what an uninterrupted run
        would have produced.
        """
        server, __ = OpenEmbeddingServer.recover(
            pools, server_config, cache_config, ps_optimizer, tracer=tracer
        )
        checkpoint_id = server.global_completed_checkpoint
        first_server = None
        if first_order_pools is not None:
            if first_order_config is None:
                raise RecoveryError("first_order_pools given without its config")
            first_server, __ = OpenEmbeddingServer.recover(
                first_order_pools, first_order_config, cache_config, ps_optimizer
            )
            if first_server.global_completed_checkpoint != checkpoint_id:
                raise RecoveryError(
                    "sparse tables recovered to different checkpoints: "
                    f"{checkpoint_id} vs {first_server.global_completed_checkpoint}"
                )
        snapshot = dense_checkpoints.load(checkpoint_id)
        model.load_dense_state(snapshot.dense_state)
        dense_optimizer = dense_optimizer or Adam()
        dense_optimizer.load_state(snapshot.optimizer_state)
        trainer = cls(
            server,
            model,
            dataset,
            num_workers=num_workers,
            batch_size=batch_size,
            dense_optimizer=dense_optimizer,
            first_order_server=first_server,
            checkpoint_every=checkpoint_every,
            prefetch=prefetch,
            tracer=tracer,
        )
        trainer.dense_checkpoints = dense_checkpoints
        trainer.next_batch = checkpoint_id + 1
        return trainer
