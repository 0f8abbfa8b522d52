"""The four e2e workloads: one shape, four regimes.

Every workload trains a DeepFM on seeded synthetic Criteo data against a
2-shard :class:`~repro.network.frontend.RemotePSClient` (real encode /
CRC / decode / dispatch over the in-process link). They differ in the
one property each is there to isolate — see ``WHY`` on each class and
``README.md`` for which layer should move which end-to-end metric where.

Set-up (timed by the caller as ``setup_s``) is the constructor: build
everything, create all 52 000 keys through the public ``pull → maintain
→ push(zero gradients)`` path, ``barrier_checkpoint()``, warm up.
"""

from __future__ import annotations

import gc
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.config import CacheConfig, NetworkFaultConfig, RetryConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.hps import HierarchicalPS
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import ReproError
from repro.network.frontend import RemotePSClient

NUM_FIELDS = 26
VOCAB_PER_FIELD = 2000
SKEW_RATE = 8.0
DIM = 16
SHARDS = 2
CREATE_CHUNK = 8192
WARMUP_OPS = 5
CLIENT_ID = 1000
"""Push identity of the client itself (set-up and the sync trainers push
under it). Kept clear of the async trainer's logical workers 0..3: the
aggregation buffer dedups on ``(worker_id, seq)`` and would otherwise
drop worker 0's first pushes as replays of the set-up's."""
REFERENCE_OPS = 8
"""Ops replayed on an independent in-process server to check the losses."""


@dataclass
class System:
    """Everything one workload built; the probes wrap these objects."""

    dataset: CriteoSynthetic
    client: RemotePSClient
    ps_opt: PSAdagrad
    model: DeepFM
    dense_opt: Adam
    trainer: object
    hps: HierarchicalPS | None = None


def _ps_optimizer() -> PSAdagrad:
    return PSAdagrad(0.05)


def _model(seed: int) -> DeepFM:
    return DeepFM(NUM_FIELDS, DIM, hidden=(64, 32), use_first_order=False, seed=seed)


class Workload:
    """Base: the common shape, the set-up and the closed-loop bookkeeping.

    One client, closed loop: the next operation is issued when the
    previous one returned. ``op_lat`` holds one latency per timed
    operation; ``train_lat`` one per unit of training work (the same
    list for the trainers).
    """

    NAME = ""
    WHY = ""
    OP = "step"
    OPS = 0  # fixed full-scale operation count
    BLOCK = 20  # timed ops per block: one checkpoint period
    TAIL_PCT = 95  # taken inside each block; 100 = the block's slowest op
    CACHE_FRACTION = 2.0  # DRAM cache rows / rows resident per shard
    SAMPLES_PER_TRAIN = 512
    SERVES = False  # timed op is a lookup; training is timed apart in train_lat
    SERVER: dict = {}

    def __init__(self, seed: int, cache_fraction: float | None = None):
        self.seed = seed
        self.probe = None
        self.failed = 0
        self.untimed_s = 0.0
        self.op_lat: list[float] = []
        self.train_lat = self.op_lat
        self.train_block = self.BLOCK
        fraction = self.CACHE_FRACTION if cache_fraction is None else cache_fraction
        dataset = CriteoSynthetic(
            NUM_FIELDS, VOCAB_PER_FIELD, skew_rate=SKEW_RATE, seed=seed
        )
        ps_opt = _ps_optimizer()
        entry_bytes = (DIM + ps_opt.state_width(DIM)) * 4
        cache_rows = int(fraction * dataset.num_keys / SHARDS)
        client = RemotePSClient(
            ServerConfig(num_nodes=SHARDS, embedding_dim=DIM, seed=seed, **self.SERVER),
            CacheConfig(capacity_bytes=cache_rows * entry_bytes),
            ps_opt,
            worker_id=CLIENT_ID,
            **self._wire(),
        )
        self.first_batch = self._create_all(client, dataset.num_keys)
        model = _model(seed)
        dense_opt = Adam(2e-3)
        self.system = System(
            dataset, client, ps_opt, model, dense_opt,
            self._trainer(client, model, dataset, dense_opt),
        )
        self._warm_up()
        gc.collect()

    def _wire(self) -> dict:
        return {}

    @staticmethod
    def _create_all(client, num_keys: int) -> int:
        """Cold-create every key; returns the first training batch id."""
        zeros = np.zeros((CREATE_CHUNK, DIM), dtype=np.float32)
        batch_id = 0
        for batch_id, lo in enumerate(range(0, num_keys, CREATE_CHUNK)):
            chunk = list(range(lo, min(lo + CREATE_CHUNK, num_keys)))
            client.pull(chunk, batch_id)
            client.maintain(batch_id)
            client.push(chunk, zeros[: len(chunk)], batch_id)
        client.barrier_checkpoint(batch_id)
        return batch_id + 1

    def _trainer(self, backend, model, dataset, dense_opt):
        raise NotImplementedError

    def _warm_up(self) -> None:
        for __ in range(WARMUP_OPS):
            self._train_op()

    def _step(self, trainer) -> None:
        """One unit of training work on ``trainer`` (ours or the reference's)."""
        trainer.step()

    def _train_op(self) -> None:
        self._step(self.system.trainer)

    # ------------------------------------------------------------------
    # the measured loop
    # ------------------------------------------------------------------

    def run_op(self, n: int) -> None:
        """One timed client operation (appends to ``op_lat``)."""
        start = time.perf_counter()
        try:
            self._train_op()
        except ReproError:
            self.failed += 1
        self.op_lat.append(time.perf_counter() - start)

    @property
    def losses(self) -> list[float]:
        """Every loss computed so far, warm-up included."""
        return self.system.trainer.loss_history

    # ------------------------------------------------------------------
    # correctness
    # ------------------------------------------------------------------

    def reference_losses(self, ops: int) -> list[float]:
        """Losses of the first ``ops`` train ops on an independent path.

        The reference is an in-process, single-shard
        :class:`OpenEmbeddingServer` with a cache that never evicts and
        no wire: shards, cache size, framing, retries and dedup must not
        change a single bit of the math, so its losses must equal this
        workload's bit for bit. (Initial weights are key-seeded and the
        set-up pushes zero gradients, so pre-creating keys is not part
        of the state.)
        """
        config = ServerConfig(
            num_nodes=1, embedding_dim=DIM, seed=self.seed, **self.SERVER
        )
        server = OpenEmbeddingServer(config, None, _ps_optimizer())
        dataset = CriteoSynthetic(
            NUM_FIELDS, VOCAB_PER_FIELD, skew_rate=SKEW_RATE, seed=self.seed
        )
        trainer = self._trainer(server, _model(self.seed), dataset, Adam(2e-3))
        for __ in range(ops):
            self._step(trainer)
        return trainer.loss_history

    def check(self) -> list[str]:
        """Problems found in this run's outputs (empty = correct)."""
        problems = []
        losses = self.losses
        if not losses or not np.isfinite(losses).all():
            problems.append("non-finite or missing training loss")
        ops = min(REFERENCE_OPS, WARMUP_OPS + len(self.train_lat))
        reference = self.reference_losses(ops)
        if reference != losses[: len(reference)]:
            problems.append(
                f"first {len(reference)} losses differ from the in-process "
                "single-shard reference"
            )
        return problems

    def state_crc(self) -> int:
        """CRC32 over every key's live weights, in key order."""
        snapshot = self.system.client.state_snapshot()
        crc = 0
        for key in sorted(snapshot):
            crc = zlib.crc32(snapshot[key].tobytes(), zlib.crc32(b"%d" % key, crc))
        return crc


class _SyncWorkload(Workload):
    OP = "SynchronousTrainer.step(), 2 workers x 256 samples"
    # The issue asked for ``checkpoint_every=20``, which only *requests*
    # checkpoints. Requests complete through evictions, and an all-hit
    # cache never evicts: the queue and the versions it retains grow
    # without bound and steps slow by ~40% over 300 steps. A benchmark
    # has to be stationary, so every BLOCK-th step is a barrier
    # checkpoint instead. A barrier flushes every cached row (52 000 on
    # sync_hot, 10 400 on sync_miss), so the period is set per workload
    # to about one checkpoint every 2-3 s of training on either.
    #
    # Exactly one step per block carries the checkpoint, so the tail the
    # issue wanted p95 to show (the checkpoint stall) is the block's
    # slowest step; an interpolated p95 or p99 straddles it and the
    # ordinary steps, and flips between the two from run to run.
    TAIL_PCT = 100

    def _trainer(self, backend, model, dataset, dense_opt):
        trainer = SynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=256,
            dense_optimizer=dense_opt,
        )
        trainer.next_batch = self.first_batch
        return trainer

    def _train_op(self) -> None:
        trainer = self.system.trainer
        trainer.step()
        if trainer.next_batch % self.BLOCK == 0:
            trainer.barrier_checkpoint()


class SyncHot(_SyncWorkload):
    NAME = "sync_hot"
    WHY = (
        "DRAM cache holds 2x the resident rows, so every pull is an all-hit "
        "batch: model math, wire codec, arena gather and maintain do the work"
    )
    OPS = 1200
    BLOCK = 100
    CACHE_FRACTION = 2.0


class SyncMiss(_SyncWorkload):
    NAME = "sync_miss"
    WHY = (
        "same run with the cache at 20% of resident rows: per-key fallback, "
        "eviction, flush and PMem store dominate (the paper's small-cache regime)"
    )
    OPS = 200
    BLOCK = 20
    CACHE_FRACTION = 0.2


class AsyncLossy(Workload):
    NAME = "async_lossy"
    WHY = (
        "bounded-staleness async training over a wire that drops, duplicates "
        "and corrupts frames: aggregation, dedup, admission and retries"
    )
    OP = "AsynchronousTrainer.run_steps(4): one round, 4 workers x 128 samples"
    OPS = 350
    WORKERS = 4
    SERVER = dict(
        staleness_bound=4, aggregator="trimmed_mean", aggregator_workers=WORKERS
    )

    def _wire(self) -> dict:
        return dict(
            faults=NetworkFaultConfig(
                drop_rate=0.04, duplicate_rate=0.02, corrupt_rate=0.02,
                seed=self.seed,
            ),
            retry=RetryConfig(
                max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0
            ),
        )

    def _trainer(self, backend, model, dataset, dense_opt):
        trainer = AsynchronousTrainer(
            backend, model, dataset, num_workers=self.WORKERS, batch_size=128,
            staleness=2, dense_optimizer=dense_opt, track_progress=True,
        )
        trainer.step = self.first_batch
        return trainer

    # One op is a full round of the round-robin schedule: single
    # scheduler steps alternate between ~6 ms (buffered) and ~40 ms
    # (the push that completes a quorum folds), so their median sits on
    # the edge between two modes and flips from run to run.
    def _step(self, trainer) -> None:
        trainer.run_steps(self.WORKERS)


class ServeMixed(Workload):
    NAME = "serve_mixed"
    WHY = (
        "reads beside writes: 208-key HierarchicalPS lookups, a train step "
        "after every 20th and a checkpoint every 5 steps, so snapshots advance"
    )
    OP = "HierarchicalPS.lookup() of 208 keys"
    SERVES = True
    OPS = 10000
    BLOCK = 100
    TAIL_PCT = 99
    CACHE_FRACTION = 0.2
    SAMPLES_PER_TRAIN = 64
    KEYS_PER_LOOKUP = 8 * NUM_FIELDS
    LOOKUPS_PER_STEP = 20
    # The issue asked for a checkpoint every 10 train steps; at that rate
    # a cached row must survive 400 lookups of LRU churn to age out and
    # under 1 row per 400 lookups does, leaving invalidation idle.
    STEPS_PER_CHECKPOINT = 5
    AUDIT_EVERY = 100
    STALENESS_K = 1
    HPS_ROWS = 5200
    # Lookups draw their own batches, clear of the trainer's batch ids.
    LOOKUP_BATCH_BASE = 1 << 20

    def _trainer(self, backend, model, dataset, dense_opt):
        trainer = SynchronousTrainer(
            backend, model, dataset, num_workers=1, batch_size=64,
            dense_optimizer=dense_opt,
        )
        trainer.next_batch = self.first_batch
        return trainer

    def _warm_up(self) -> None:
        self.train_lat = []
        self.train_block = self.STEPS_PER_CHECKPOINT
        self.steps = 0
        self.audited = 0
        client = self.system.client
        # snapshot id -> checkpoints completed when it was taken: the
        # auditor's own staleness clock.
        self._completed_at = {
            client.latest_serving_snapshot: client.checkpoints_completed
        }
        for __ in range(WARMUP_OPS):
            self.system.trainer.step()
        self._checkpoint()
        self.system.hps = HierarchicalPS(
            client, capacity_rows=self.HPS_ROWS, staleness_bound_k=self.STALENESS_K
        )
        for n in range(WARMUP_OPS):
            self.system.hps.lookup(self._keys(-1 - n))

    def _keys(self, n: int) -> np.ndarray:
        batch = self.system.dataset.batch(8, self.LOOKUP_BATCH_BASE + n)
        return batch.keys.reshape(-1)

    def _checkpoint(self) -> None:
        self.system.trainer.barrier_checkpoint()
        client = self.system.client
        self._completed_at[client.latest_serving_snapshot] = (
            client.checkpoints_completed
        )

    def run_op(self, n: int) -> None:
        keys = self._keys(n)
        result = None
        start = time.perf_counter()
        try:
            result = self.system.hps.lookup(keys)
        except ReproError:
            self.failed += 1
        self.op_lat.append(time.perf_counter() - start)
        if result is not None and n % self.AUDIT_EVERY == 0:
            self._audit(keys, result)
        if (n + 1) % self.LOOKUPS_PER_STEP == 0:
            self._train_op()

    def _train_op(self) -> None:
        start = time.perf_counter()
        try:
            self.system.trainer.step()
            self.steps += 1
            if self.steps % self.STEPS_PER_CHECKPOINT == 0:
                self._checkpoint()
        except ReproError:
            self.failed += 1
        self.train_lat.append(time.perf_counter() - start)

    def _audit(self, keys, result) -> None:
        """Check one served batch, outside its timed interval.

        Rows stamped with the current snapshot must equal the backend's
        rows at that snapshot bit for bit (nothing torn); every row's
        snapshot must be within ``STALENESS_K`` completed checkpoints of
        the current one. A batch that breaks either is a failed op.
        """
        start = time.perf_counter()
        if self.probe is not None:
            self.probe.on = False
        try:
            reference = self.system.client.lookup(keys, result.snapshot_id)
            current = result.row_snapshots == result.snapshot_id
            torn = not np.array_equal(
                result.weights[current], reference.weights[current]
            )
            newest = self._completed_at[result.snapshot_id]
            beyond = any(
                newest - self._completed_at[int(snapshot)] > self.STALENESS_K
                for snapshot in np.unique(result.row_snapshots)
            )
            if torn or beyond:
                self.failed += 1
            self.audited += 1
        finally:
            if self.probe is not None:
                self.probe.on = True
            self.untimed_s += time.perf_counter() - start


WORKLOADS = {cls.NAME: cls for cls in (SyncHot, SyncMiss, AsyncLossy, ServeMixed)}
