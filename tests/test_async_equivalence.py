"""Satellite: async == sync, bitwise, when every async knob is neutral.

At ``staleness=0`` with one worker, a staleness bound of ``k=0`` and the
``mean`` aggregator (identity for single-contribution folds), the
asynchronous trainer performs the *exact* operation sequence of the
synchronous trainer: pull, maintain, compute, push, dense step. The
first-class machinery — admission checks on every pull, worker identity
and seq on every push, the aggregation buffer — must therefore be
bit-transparent, and must stay so over RPC and over a lossy wire with
retries (the dedup window absorbing replays exactly-once).
"""

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    NetworkFaultConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.optimizers import PSSGD
from repro.core.ps_node import PSNode
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import KeyNotFoundError, ServerError
from repro.failure.injection import WorkerFaultProfile
from repro.network.frontend import RemotePSClient

FIELDS, DIM = 5, 8
BATCH = 16
STEPS = 30
SEED = 11

FAULTS = NetworkFaultConfig(
    drop_rate=0.05, duplicate_rate=0.03, corrupt_rate=0.02, seed=5
)
RETRY = RetryConfig(
    max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=30.0, seed=5
)

TRANSPORTS = ("local", "rpc", "faulty")


def configs(*, defended: bool):
    server_config = ServerConfig(
        num_nodes=2,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 26,
        seed=SEED,
        staleness_bound=0 if defended else None,
        aggregator="mean" if defended else "none",
        aggregator_workers=1 if defended else 0,
        aggregator_f=0 if defended else None,
    )
    return server_config, CacheConfig(capacity_bytes=64 << 10)


def build_backend(transport: str, *, defended: bool):
    server_config, cache_config = configs(defended=defended)
    if transport == "local":
        return OpenEmbeddingServer(server_config, cache_config, PSSGD(lr=0.05))
    if transport == "rpc":
        return RemotePSClient(server_config, cache_config, PSSGD(lr=0.05))
    return RemotePSClient(
        server_config, cache_config, PSSGD(lr=0.05), faults=FAULTS, retry=RETRY
    )


def model_and_data():
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=60, seed=2)
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=SEED)
    return model, dataset


@pytest.fixture(scope="module")
def sync_reference():
    """Synchronous run on an undefended in-process server."""
    model, dataset = model_and_data()
    backend = build_backend("local", defended=False)
    trainer = SynchronousTrainer(
        backend, model, dataset,
        num_workers=1, batch_size=BATCH, dense_optimizer=Adam(1e-2),
    )
    trainer.train(STEPS)
    return (
        backend.state_snapshot(),
        [np.array(p, copy=True) for p in model.mlp.parameters()],
    )


def assert_bitwise(backend, model, sync_reference):
    ref_state, ref_params = sync_reference
    state = backend.state_snapshot()
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"key {key} differs"
    for got, want in zip(model.mlp.parameters(), ref_params):
        assert np.array_equal(got, want)


class TestAsyncVsSyncBitwise:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_k0_mean_single_worker_is_bitwise_sync(
        self, transport, sync_reference
    ):
        model, dataset = model_and_data()
        backend = build_backend(transport, defended=True)
        trainer = AsynchronousTrainer(
            backend, model, dataset,
            num_workers=1, batch_size=BATCH, staleness=0,
            dense_optimizer=Adam(1e-2),
        )
        # The defended backend auto-enables identity tracking; every
        # pull passes the k=0 admission gate, every push crosses the
        # mean aggregator as an identity fold.
        assert trainer.track_progress
        trainer.run_steps(STEPS)
        assert_bitwise(backend, model, sync_reference)
        if transport == "faulty":
            reliability = backend.reliability()
            assert reliability.faults_injected > 0  # the wire was lossy

    def test_admission_and_identity_are_bit_transparent_multiworker(self):
        """Progress tracking alone (no aggregation) must not change a
        single float of a multi-worker async run."""
        model_a, dataset = model_and_data()
        plain = build_backend("local", defended=False)
        baseline = AsynchronousTrainer(
            plain, model_a, dataset,
            num_workers=3, batch_size=BATCH, staleness=2,
            dense_optimizer=Adam(1e-2),
        )
        assert not baseline.track_progress
        baseline.run_steps(STEPS)

        model_b, dataset = model_and_data()
        tracked_backend = OpenEmbeddingServer(
            ServerConfig(
                num_nodes=2, embedding_dim=DIM,
                pmem_capacity_bytes=1 << 26, seed=SEED,
                staleness_bound=10_000,  # never rejects
            ),
            CacheConfig(capacity_bytes=64 << 10),
            PSSGD(lr=0.05),
        )
        tracked = AsynchronousTrainer(
            tracked_backend, model_b, dataset,
            num_workers=3, batch_size=BATCH, staleness=2,
            dense_optimizer=Adam(1e-2),
        )
        assert tracked.track_progress
        tracked.run_steps(STEPS)

        a, b = plain.state_snapshot(), tracked_backend.state_snapshot()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key])
        for pa, pb in zip(model_a.mlp.parameters(), model_b.mlp.parameters()):
            assert np.array_equal(pa, pb)
        assert all(
            node.staleness.admitted > 0 for node in tracked_backend.nodes
        )


class TestMetricsParity:
    def test_both_backends_emit_the_same_series(self):
        """The per-node half of ``collect_metrics`` is inherited by the
        RPC client, so the same defended schedule yields the same
        ``(name, labels)`` series — values included — on both backends;
        only the client's own ``repro_rpc_*`` wire counters are extra."""
        from repro.obs.registry import MetricsRegistry

        def series(transport):
            model, dataset = model_and_data()
            backend = build_backend(transport, defended=True)
            AsynchronousTrainer(
                backend, model, dataset,
                num_workers=1, batch_size=BATCH, staleness=0,
                dense_optimizer=Adam(1e-2),
            ).run_steps(8)
            registry = MetricsRegistry()
            backend.collect_metrics(registry)
            return {
                (name, tuple(sorted(labels.items()))): metric.value
                for name, labels, metric in registry.items()
                if labels.get("node") != "client"
            }, {
                name
                for name, labels, __ in registry.items()
                if labels.get("node") == "client"
            }

        local, local_client = series("local")
        rpc, __ = series("rpc")
        __, faulty_client = series("faulty")
        assert rpc == local
        emitted = {name for name, __ in local}
        assert {
            "repro_async_pulls_admitted",
            "repro_async_aggregator_folds",
            "repro_async_aggregator_rows_folded",
            "repro_async_aggregator_rows_reduced",
            "repro_async_aggregator_queue_depth_max",
        } <= emitted
        node0 = (("node", "0"),)
        assert local["repro_async_aggregator_rows_folded", node0] > 0
        assert local["repro_async_aggregator_rows_reduced", node0] == 0  # one worker
        assert local["repro_async_aggregator_queue_depth_max", node0] == 1
        # Cache / arena internals, per node, with values (rpc == local above).
        for node in (node0, (("node", "1"),)):
            keys = local["repro_cache_index_keys", node]
            assert keys > 0
            assert local["repro_cache_resident_entries", node] == keys  # all fit
            assert local["repro_arena_rows", node] == keys
            assert local["repro_arena_capacity_rows", node] >= keys
            assert local["repro_cache_capacity_entries", node] == (64 << 10) // (DIM * 4)
            assert 0 < local["repro_cache_index_load_factor", node] <= 0.5
            # Every key the shard holds was cold-created by a pull, once.
            assert local["repro_cache_created_rows_total", node] == keys
        assert not local_client
        assert faulty_client and all(
            name.startswith("repro_rpc_") for name in faulty_client
        )


    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_store_internals_are_gauges(self, transport):
        """What the PMem tier holds, per node, with values: pool bytes,
        stored keys (slots whose ``head`` is set), versions per stored
        key and checkpoints still pending — the same on both backends."""
        from repro.obs.registry import MetricsRegistry

        server_config = ServerConfig(
            num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 20
        )
        build = OpenEmbeddingServer if transport == "local" else RemotePSClient
        backend = build(server_config, CacheConfig(capacity_bytes=4 * DIM * 4), PSSGD(lr=0.05))
        ones = np.ones((4, DIM), dtype=np.float32)
        for batch_id, keys in enumerate(([0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 8, 9])):
            backend.pull(keys, batch_id)
            backend.maintain(batch_id)
            backend.push(keys, ones, batch_id)
        backend.request_checkpoint(2)  # stays pending: no round has run since
        registry = MetricsRegistry()
        backend.collect_metrics(registry)
        gauges = {
            name: metric.value
            for name, labels, metric in registry.items()
            if labels.get("node") == "0"
        }
        # Stored: 0..3 (evicted by round 1) and 4..7 (by round 2), one
        # version each; 8 and 9 live in DRAM only, 0 and 1 were loaded back.
        assert gauges["repro_pmem_stored_keys"] == 8
        assert gauges["repro_pmem_slab_rows"] == 8
        assert gauges["repro_pmem_versions_per_key"] == 1.0
        assert gauges["repro_pmem_pool_used_bytes"] == 8 * DIM * 4
        assert gauges["repro_pmem_pool_free_bytes"] == (1 << 20) - 8 * DIM * 4
        assert gauges["repro_checkpoint_pending"] == 1
        assert gauges["repro_cache_index_keys"] == 10

    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_drained_rows_are_counted(self, transport):
        """A checkpoint of eight trained rows, then rounds that touch two
        of them: the first round flushes those two before they advance,
        and each round drains at most two more (its own size), so the six
        untouched rows take three rounds — the same on both backends, in
        ``repro_checkpoint_drained_rows_total``."""
        from repro.obs.registry import MetricsRegistry

        server_config = ServerConfig(num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 20)
        build = OpenEmbeddingServer if transport == "local" else RemotePSClient
        backend = build(server_config, CacheConfig(capacity_bytes=64 * DIM * 4), PSSGD(lr=0.05))
        keys = list(range(8))
        backend.pull(keys, 0)
        backend.maintain(0)
        backend.push(keys, np.ones((8, DIM), dtype=np.float32), 0)
        backend.request_checkpoint(0)
        for batch_id in range(1, 4):
            backend.pull([0, 1], batch_id)
            (result,) = backend.maintain(batch_id)
            assert result.flushes == (2 if batch_id == 1 else 0) + 2
            assert result.checkpoints_completed == (batch_id == 3)
        registry = MetricsRegistry()
        backend.collect_metrics(registry)
        series = {name: metric.value for name, __, metric in registry.items()}
        assert series["repro_checkpoint_drained_rows_total"] == 6
        assert series["repro_checkpoints_completed_total"] == 1
        assert series["repro_checkpoint_pending"] == 0


class TestAnonymousPushIdentity:
    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_client_stamped_pushes_do_not_shadow_worker_zero(self, transport):
        """Regression: a default client (``worker_id=0``) used to stamp
        its own pushes ``(0, 1), (0, 2), ...`` — the identity logical
        worker 0 uses — so the replay window and the aggregation buffer
        dropped that worker's first pushes as replays of the set-up's.
        Set-up pushes through a default backend, then worker 0's own
        ``seq=1``: it must be folded."""
        backend = build_backend(transport, defended=True)
        keys = list(range(12))
        grads = np.ones((len(keys), DIM), dtype=np.float32)
        for batch in range(3):  # set-up: the backend stamps these itself
            backend.pull(keys, batch)
            backend.maintain(batch)
            assert backend.push(keys, grads, batch) == len(keys)
        before = backend.state_snapshot()
        backend.pull(keys, 3)
        backend.maintain(3)
        assert backend.push(keys, grads, 3, worker_id=0, seq=1) == len(keys)
        assert all(
            node.aggregation.stats.duplicates_dropped == 0 for node in backend.nodes
        )
        if transport == "rpc":
            assert sum(service.dup_suppressed for service in backend.services) == 0
        after = backend.state_snapshot()
        assert all(not np.array_equal(after[key], before[key]) for key in keys)
        # The wire retry of that very push is still absorbed exactly once.
        assert backend.push(keys, grads, 3, worker_id=0, seq=1) in (0, len(keys))
        final = backend.state_snapshot()
        assert all(np.array_equal(final[key], after[key]) for key in keys)


def two_worker_backend(transport: str, nodes: int = 1, aggregator: str = "mean"):
    """A ``mean``-folding backend whose rounds wait for 2 workers."""
    server_config = ServerConfig(
        num_nodes=nodes, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=SEED,
        aggregator=aggregator, aggregator_workers=2, aggregator_f=0,
    )
    backend_cls = OpenEmbeddingServer if transport == "local" else RemotePSClient
    return backend_cls(server_config, CacheConfig(capacity_bytes=64 << 10), PSSGD(lr=0.05))


class TestMalformedPushRefused:
    """A push that could not be folded is refused typed, on both
    transports, before the progress vector, the dedup window or any
    queue changes. Reaching the fold, it used to fail after the round had
    popped the honest worker's contribution (lost) and after its
    ``(worker_id, seq)`` had entered the dedup window (the corrected retry
    then dropped as a replay)."""

    def refused_then_corrected(self, transport, bad_keys, bad_grads, error, match):
        backend = two_worker_backend(transport)
        (node,) = backend.nodes
        keys = list(range(6))
        backend.pull(keys, 0)
        backend.maintain(0)
        before = backend.state_snapshot()
        honest = np.ones((len(keys), DIM), dtype=np.float32)

        assert backend.push(keys, honest, 0, worker_id=0, seq=1) == 0  # buffered
        with pytest.raises(error, match=match):
            backend.push(bad_keys, bad_grads, 0, worker_id=1, seq=1)
        buffer = node.aggregation
        assert buffer.pending == 1 and buffer.stats.folds == 0  # worker 0 intact
        assert buffer.stats.pushes_buffered == 1
        assert node.staleness.last_push.get(1) is None  # no progress recorded

        # The corrected push reuses the seq: not a replay, and the round
        # folds both workers.
        assert backend.push(keys, 3 * honest, 0, worker_id=1, seq=1) == len(keys)
        assert buffer.pending == 0 and buffer.stats.duplicates_dropped == 0
        assert (buffer.stats.folds, buffer.stats.rows_reduced) == (1, len(keys))
        after = backend.state_snapshot()
        assert sorted(after) == keys  # the unknown key was never created
        for key in keys:  # SGD on the mean of the two pushes: (1 + 3) / 2
            assert np.array_equal(
                after[key], before[key] - np.float32(0.05) * np.float32(2.0)
            )

    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_wrong_width_push_is_refused_before_any_state_changes(self, transport):
        malformed = np.ones((6, 2 * DIM), dtype=np.float32)
        self.refused_then_corrected(
            transport, list(range(6)), malformed, ServerError, "gradient shape"
        )

    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_never_pulled_key_is_refused_before_any_state_changes(self, transport):
        """``ERR_KEY_NOT_FOUND`` over RPC: the typed error round-trips."""
        grads = np.ones((6, DIM), dtype=np.float32)
        self.refused_then_corrected(
            transport, [0, 1, 2, 3, 4, 999], grads, KeyNotFoundError, "999"
        )


class TestFacadeChecksTheGradientBlock:
    @pytest.mark.parametrize("aggregator", ("none", "mean"))
    @pytest.mark.parametrize("transport", ("local", "rpc"))
    @pytest.mark.parametrize("rows, width", [(15, DIM), (8, DIM), (12, DIM - 1)])
    def test_a_block_of_another_shape_touches_no_shard(
        self, transport, aggregator, rows, width
    ):
        """Regression: the facade sliced ``grads[positions]`` per shard
        unchecked — extra rows were dropped silently, and too few raised
        a raw ``IndexError``, possibly after a shard had applied its
        part. Any block that is not ``(len(keys), embedding_dim)`` is
        refused before the first shard is reached."""
        backend = two_worker_backend(transport, nodes=2, aggregator=aggregator)
        keys = list(range(100, 112))
        backend.pull(keys, 0)
        backend.maintain(0)
        assert all(len(node.owned_keys()) for node in backend.nodes)  # both shards
        before = backend.state_snapshot()
        grads = np.ones((rows, width), dtype=np.float32)
        with pytest.raises(ServerError, match=r"gradient shape \(%d, %d\)" % (rows, width)):
            backend.push(keys, grads, 0, worker_id=0, seq=1)
        after = backend.state_snapshot()
        assert all(np.array_equal(after[key], before[key]) for key in keys)
        for node in backend.nodes:
            assert node.latest_completed_batch == -1
            assert node.staleness.last_push.get(0) is None
            if node.aggregation is not None:
                assert node.aggregation.stats.pushes_buffered == 0
        # The same push with its block in shape goes through.
        backend.push(keys, np.ones((12, DIM), dtype=np.float32), 0, worker_id=0, seq=1)
        assert backend.latest_completed_batch == (0 if aggregator == "none" else -1)


class TestReshardFoldsBeforeItsBarrier:
    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_a_reshard_moves_the_rows_its_barrier_folds(self, transport):
        """Regression: the facade's default checkpoint id was read before
        the shards folded their buffered pushes, so a reshard's barrier
        completed below the rows those folds updated. The migration then
        moved stale versions of them — or no version, dropping a key its
        new owner had never seen, so a later push into it failed."""

        def run(reshard: bool):
            backend = two_worker_backend(transport, nodes=2)
            keys = list(range(40))
            grads = np.ones((len(keys), DIM), dtype=np.float32)
            for batch in range(3):
                backend.pull(keys, batch)
                backend.maintain(batch)
                backend.push(keys, grads * (batch + 1), batch, worker_id=0, seq=batch + 1)
                if batch < 2:  # worker 0's last push waits for a quorum
                    backend.push(keys, grads, batch, worker_id=1, seq=batch + 1)
            if reshard:
                assert backend.scale_out().barrier_batch == 2
            else:
                backend.flush_aggregation()
            return backend.state_snapshot()

        moved, stayed = run(reshard=True), run(reshard=False)
        assert sorted(moved) == sorted(stayed)
        for key, weights in stayed.items():
            np.testing.assert_array_equal(moved[key], weights)


class TestDuplicatedPushAppliesOnce:
    """A worker that sends every push twice under one ``(worker_id,
    seq)`` trains the weights of one that sends it once, on every
    transport: the RPC reply cache, the aggregation buffer's replay
    window and, in process without a buffer, the node's own window each
    absorb the copy."""

    @staticmethod
    def run(transport: str, aggregator: str, duplicate_prob: float):
        server_config = ServerConfig(
            num_nodes=2, embedding_dim=4, pmem_capacity_bytes=1 << 24, seed=1,
            staleness_bound=8, aggregator=aggregator,
            aggregator_workers=2 if aggregator != "none" else 0,
        )
        backend_type = OpenEmbeddingServer if transport == "local" else RemotePSClient
        backend = backend_type(server_config, CacheConfig(), PSSGD(lr=0.1))
        trainer = AsynchronousTrainer(
            backend,
            DeepFM(3, 4, hidden=(8,), use_first_order=False, seed=1),
            CriteoSynthetic(num_fields=3, vocab_per_field=20, seed=2),
            num_workers=2, batch_size=8, staleness=1,
            worker_faults={0: WorkerFaultProfile(duplicate_prob=duplicate_prob, seed=3)},
        )
        trainer.run_steps(6)
        return trainer, backend

    @pytest.mark.parametrize(
        "transport, aggregator", [("local", "none"), ("rpc", "none"), ("local", "mean")]
    )
    def test_the_copy_lands_once(self, transport, aggregator):
        twice, backend = self.run(transport, aggregator, 1.0)
        __, reference = self.run(transport, aggregator, 0.0)
        assert twice.stats.duplicate_pushes == 3
        got, want = backend.state_snapshot(), reference.state_snapshot()
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key], want[key]) for key in want)
        for node, twin in zip(backend.nodes, reference.nodes):
            assert node.metrics.updates == twin.metrics.updates

    def test_the_node_window_without_a_buffer(self):
        """``seq=0`` opts out, and a refused push is not remembered: its
        retry, once the key exists, applies."""
        node = PSNode(0, ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22))
        node.pull([1], 0)
        node.maintain(0)
        ones = np.ones((1, DIM), dtype=np.float32)
        for seq, updated in ((5, 1), (5, 0), (0, 1), (0, 1)):
            assert node.push([1], ones, 0, worker_id=0, seq=seq) == updated
        with pytest.raises(KeyNotFoundError):
            node.push([2], ones, 0, worker_id=0, seq=6)
        node.pull([2], 1)
        node.maintain(1)
        assert node.push([2], ones, 1, worker_id=0, seq=6) == 1
        assert node.metrics.updates == 4
