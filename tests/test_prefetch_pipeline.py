"""Unit tests for the lookahead prefetch pipeline."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.config import CacheConfig, PrefetchConfig, ServerConfig
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.prefetch import PrefetchPipeline
from repro.errors import ConfigError, ServerError

DIM = 8


def make_backend():
    return OpenEmbeddingServer(
        ServerConfig(num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22),
        CacheConfig(capacity_bytes=1 << 18),
    )


def stream(batch_id: int) -> np.ndarray:
    """Deterministic toy key stream: batch b touches keys 2b .. 2b+3."""
    return np.arange(2 * batch_id, 2 * batch_id + 4).reshape(2, 2)


def make_pipeline(lookahead=2, **kwargs):
    backend = make_backend()
    config = PrefetchConfig(lookahead=lookahead)
    return PrefetchPipeline(backend, config, DIM, stream, **kwargs), backend


class TestConfig:
    def test_lookahead_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            PrefetchConfig(lookahead=-1)

    def test_enabled(self):
        assert not PrefetchConfig(lookahead=0).enabled
        assert PrefetchConfig(lookahead=1).enabled

    def test_pipeline_rejects_bad_dim(self):
        backend = make_backend()
        with pytest.raises(ConfigError):
            PrefetchPipeline(backend, PrefetchConfig(lookahead=1), 0, stream)

    def test_pipeline_requires_full_backend(self):
        class NotABackend:
            pass

        with pytest.raises(TypeError):
            PrefetchPipeline(NotABackend(), PrefetchConfig(lookahead=1), DIM, stream)


class TestStepProtocol:
    def test_gather_requires_begin_batch(self):
        pipeline, _ = make_pipeline()
        with pytest.raises(ServerError, match="not buffered"):
            pipeline.gather(stream(0))

    def test_gather_rejects_non_matrix(self):
        pipeline, _ = make_pipeline()
        pipeline.begin_batch(0, stream(0))
        with pytest.raises(ConfigError, match="2-D"):
            pipeline.gather(stream(0).reshape(-1))

    def test_gather_matches_direct_pull(self):
        pipeline, backend = make_pipeline()
        reference = make_backend()
        keys = stream(0)
        pipeline.begin_batch(0, keys)
        rows = pipeline.gather(keys)
        expected = reference.pull(keys.reshape(-1).tolist(), 0).weights
        np.testing.assert_array_equal(
            rows, expected.reshape(*keys.shape, DIM)
        )

    def test_prefetch_fills_next_window(self):
        pipeline, _ = make_pipeline(lookahead=2)
        pipeline.begin_batch(0, stream(0))
        pipeline.gather(stream(0))
        pipeline.run_overlap(0)
        # window = keys of batches 1 and 2 = {2..7}; {2,3} already
        # buffered from batch 0, so only {4..7} are prefetched.
        assert pipeline.stats.prefetch_keys == 4
        assert pipeline.stats.deduped_keys == 2
        pipeline.end_batch(0)
        pipeline.begin_batch(1, stream(1))
        assert pipeline.stats.demand_keys == 4  # batch 0 only

    def test_push_invalidates_buffered_keys(self):
        pipeline, _ = make_pipeline(lookahead=1)
        pipeline.begin_batch(0, stream(0))
        pipeline.run_overlap(0)
        held = pipeline.buffered_keys
        grads = np.ones((4, DIM), dtype=np.float32)
        pipeline.push([2, 3, 4, 5], grads, 0)
        # every pushed key left the buffer until end_batch patches it
        assert pipeline.stats.invalidated_keys == 4
        assert pipeline.buffered_keys == held - 4
        with pytest.raises(ServerError, match="not buffered"):
            pipeline.gather(np.array([[2, 3]]))

    def test_eager_patch_restores_window_keys(self):
        pipeline, _ = make_pipeline(lookahead=1)
        pipeline.begin_batch(0, stream(0))
        pipeline.run_overlap(0)
        pipeline.push([2, 3], np.ones((2, DIM), dtype=np.float32), 0)
        pipeline.end_batch(0)
        assert pipeline.stats.patched_keys == 2
        pipeline.validate()
        # batch 1 = keys {2..5}, all restored or prefetched: no demand.
        before = pipeline.stats.demand_keys
        pipeline.begin_batch(1, stream(1))
        assert pipeline.stats.demand_keys == before

    def test_buffer_pruned_to_window(self):
        pipeline, _ = make_pipeline(lookahead=1)
        pipeline.begin_batch(0, stream(0))
        pipeline.run_overlap(0)
        pipeline.end_batch(0)
        # window of batch 0 is batch 1's keys {2..5}
        assert pipeline.buffered_keys == 4

    def test_horizon_clips_window(self):
        pipeline, backend = make_pipeline(lookahead=8)
        pipeline.horizon = 1
        pipeline.begin_batch(0, stream(0))
        pipeline.run_overlap(0)
        pipeline.end_batch(0)
        # only batch 1's keys may exist beyond batch 0's
        assert backend.num_entries == 6

    def test_lookahead_zero_is_serial(self):
        """Lookahead 0 is no pipeline: the pipeline refuses it, and both
        trainers keep the serial protocol."""
        from repro.dlrm.async_trainer import AsynchronousTrainer
        from repro.dlrm.criteo import CriteoSynthetic
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.trainer import SynchronousTrainer

        with pytest.raises(ConfigError, match="lookahead"):
            make_pipeline(lookahead=0)
        for trainer_class in (SynchronousTrainer, AsynchronousTrainer):
            trainer = trainer_class(
                make_backend(),
                DeepFM(2, DIM, hidden=(4,), use_first_order=False, seed=0),
                CriteoSynthetic(num_fields=2, vocab_per_field=20, seed=0),
                prefetch=PrefetchConfig(lookahead=0),
            )
            assert trainer.pipeline is None, trainer_class

    def test_validate_raises_on_stale_buffer(self):
        pipeline, _ = make_pipeline(lookahead=1)
        pipeline.begin_batch(0, stream(0))
        pipeline._pushed = np.array([2], dtype=np.uint64)  # a missed invalidation
        with pytest.raises(ServerError, match="staleness"):
            pipeline.validate()


class TestOverlapTiming:
    """The overlap window is priced once, by the cost model the simulator
    prices every iteration with; the pipeline keeps no clock."""

    COUNTS = dict(
        requests=64, hits=40, misses=8, created=16, maintain_processed=64,
        maintain_loads=8, maintain_flushes=8, maintain_evictions=8,
        prefetch_requests=128, prefetch_hits=100, prefetch_created=28,
    )

    @classmethod
    def price(cls, pipelined: bool):
        from repro.config import ClusterConfig
        from repro.simulation.cluster import IterationCounts, PSCostModel, SystemKind

        model = PSCostModel(
            SystemKind.PMEM_OE,
            ClusterConfig(gpu_batch_time_s=0.5),
            ServerConfig(embedding_dim=DIM),
            pipelined=pipelined,
        )
        timing = model.price_iteration(IterationCounts(**cls.COUNTS))
        edges = timing.net_pull + timing.pull_service + timing.net_push + timing.push_service
        return timing, edges

    def test_overlap_charges_max_of_ps_and_gpu(self):
        timing, edges = self.price(pipelined=True)
        ps_work = timing.maintain_deferred + timing.prefetch_overlapped
        assert 0 < ps_work < timing.gpu == 0.5
        # the PS work is hidden: the window costs exactly the GPU slice
        assert timing.total == pytest.approx(edges + timing.gpu + timing.maintain_inline)

    def test_serial_mode_charges_gpu_after_maintain(self):
        overlapped, __ = self.price(pipelined=True)
        timing, edges = self.price(pipelined=False)
        # nothing overlaps: maintenance and the lookahead pulls are
        # charged on the critical path, after the GPU slice
        assert timing.maintain_deferred == timing.prefetch_overlapped == 0.0
        assert timing.maintain_inline >= overlapped.prefetch_overlapped
        assert timing.total == pytest.approx(edges + timing.gpu + timing.maintain_inline)
        assert timing.total > overlapped.total


GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "golden_prefetch_pulls.json").read_text()
)
SCENARIOS = {"lookahead2_patched": PrefetchConfig(lookahead=2)}


@pytest.mark.parametrize("name", SCENARIOS)
class TestPullGoldens:
    """``tests/golden_prefetch_pulls.json`` was recorded on the tree whose
    pipeline was a dict of rows and whose simulator carried its own copy
    of the discipline. The order of the keys inside each backend pull is
    part of the contract (the server's LRU order follows it), so it is
    pinned element for element."""

    BATCHES = 10

    @staticmethod
    def keys(batch_id: int) -> np.ndarray:
        return np.random.default_rng(100 + batch_id).integers(0, 30, size=(6, 3))

    def test_backend_sees_the_recorded_pulls(self, name):
        backend = OpenEmbeddingServer(
            ServerConfig(num_nodes=2, embedding_dim=4, pmem_capacity_bytes=1 << 22),
            CacheConfig(capacity_bytes=1 << 18),
        )
        pulls, real_pull = [], backend.pull

        def spy(keys, batch_id):
            assert isinstance(keys, np.ndarray) and keys.dtype == np.uint64
            pulls.append([batch_id, keys.tolist()])
            return real_pull(keys, batch_id)

        backend.pull = spy
        pipeline = PrefetchPipeline(
            backend, SCENARIOS[name], 4, self.keys, horizon=self.BATCHES - 1
        )
        for b in range(self.BATCHES):
            keys = self.keys(b)
            pipeline.begin_batch(b, keys)
            pipeline.gather(keys)
            pipeline.run_overlap(b)
            pipeline.push(keys.reshape(-1), np.ones((keys.size, 4), np.float32), b)
            pipeline.end_batch(b)
            pipeline.validate()
        assert pulls == GOLDENS[name]["pulls"]
        stats = dataclasses.asdict(pipeline.stats)
        recorded = GOLDENS[name]["stats"]
        assert {field: stats[field] for field in recorded} == recorded
        # the per-cause outcomes account for every key the backend was sent
        assert (
            stats["demand_hits"] + stats["demand_misses"] + stats["demand_created"]
            == stats["demand_keys"]
        )
        assert (
            stats["lookahead_hits"] + stats["lookahead_misses"]
            + stats["lookahead_created"]
            == stats["prefetch_keys"] + stats["patched_keys"]
        )

    def test_simulator_prices_the_recorded_counts(self, name):
        from repro.config import (
            CheckpointConfig, ClusterConfig, NetworkConfig, WorkloadConfig,
        )
        from repro.simulation.cluster import SystemKind
        from repro.simulation.trainer_sim import TrainingSimulator
        from repro.workload.generator import WorkloadGenerator

        sim = TrainingSimulator(
            SystemKind.PMEM_OE,
            ClusterConfig(
                num_workers=4, batch_size=32,
                network=NetworkConfig(bandwidth_bytes_per_s=60e6),
            ),
            ServerConfig(embedding_dim=16, pmem_capacity_bytes=1 << 26),
            CacheConfig(capacity_bytes=96 * 16 * 4),
            CheckpointConfig.none(),
            WorkloadGenerator(
                WorkloadConfig(num_keys=2_000, features_per_sample=4, seed=1)
            ),
            prefetch=SCENARIOS[name],
        )
        counts, real_price = [], sim.cost_model.price_iteration

        def spy(iteration_counts):
            counts.append(dataclasses.asdict(iteration_counts))
            return real_price(iteration_counts)

        sim.cost_model.price_iteration = spy
        sim.run(16)
        assert counts == GOLDENS[name]["simulator"]


class TestNoPerKeyPython:
    """Structural guard: a warm step (nothing to demand-pull, everything
    pushed, everything patched) executes the same bytecode in
    ``dlrm/prefetch.py`` for 8 192 keys as for 256."""

    @staticmethod
    def warm_step_opcodes(num_keys: int) -> int:
        from tests.test_hotpath_equivalence import TestNoPerKeyPython as guard

        rng = np.random.default_rng(num_keys)
        matrix = rng.choice(2**40, num_keys, replace=False).reshape(-1, 8)
        backend = OpenEmbeddingServer(
            ServerConfig(num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26),
            CacheConfig(capacity_bytes=1 << 24),
        )
        pipeline = PrefetchPipeline(
            backend, PrefetchConfig(lookahead=2), DIM, lambda batch_id: matrix
        )
        grads = np.ones((num_keys, DIM), dtype=np.float32)

        def one_step(batch_id):
            pipeline.begin_batch(batch_id, matrix)
            pipeline.gather(matrix)
            pipeline.run_overlap(batch_id)
            pipeline.push(matrix.reshape(-1), grads, batch_id)
            pipeline.end_batch(batch_id)

        one_step(0)
        demanded = pipeline.stats.demand_keys
        opcodes = guard.count(lambda: one_step(1), where=("/repro/dlrm/prefetch.py",))
        assert pipeline.stats.demand_keys == demanded == num_keys
        assert pipeline.stats.patched_keys == 2 * num_keys
        return opcodes

    def test_opcode_count_does_not_grow_with_the_batch(self):
        small, large = self.warm_step_opcodes(256), self.warm_step_opcodes(8192)
        assert small > 100 and large == small, (small, large)
