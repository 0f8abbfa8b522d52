"""One ``KeyPlan`` per key matrix: a worker's keys are routed once.

A plan sends each shard its distinct keys once each way: a pull gathers
every repeat from its key's row, a push sums every key's rows on the
client before it leaves. The property below holds both to the raw-keys
reference — one :class:`~repro.core.ps_node.PSNode` fed the request as
it came, repeats and all, which sums them in its cache — on 1-3 shards,
in process and over the wire. The guard below counts what the trainers
build: one plan per worker key matrix, and no ``split`` on the way.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.ps_node import PSNode
from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import ConsistentHashRing, HashPartitioner, KeyPlan
from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.optimizers import Adam
from repro.dlrm.trainer import SynchronousTrainer
from repro.network.frontend import RemotePSClient

DIM = 4
TOP = 2**64 - 1
KEYS = st.lists(st.one_of(st.integers(0, 30), st.sampled_from([0, 1, TOP])), max_size=48)
TRANSPORTS = {"local": OpenEmbeddingServer, "rpc": RemotePSClient}


def config(nodes: int) -> ServerConfig:
    return ServerConfig(num_nodes=nodes, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=5)


def gradients(n: int, seed: int) -> np.ndarray:
    """Rows whose magnitudes differ by up to six decades, so the order a
    key's repeats are summed in shows in the float32 bits."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, (n, 1))
    return (rng.normal(0, 1, (n, DIM)) * scale).astype(np.float32)


def bits(row: np.ndarray) -> bytes:
    return np.ascontiguousarray(row).tobytes()


class TestThePlan:
    @settings(max_examples=60)
    @given(keys=KEYS, nodes=st.integers(1, 3))
    @example(keys=[], nodes=2)
    @example(keys=[TOP] * 5, nodes=3)
    @example(keys=[0, TOP, 0, 5, TOP, 0], nodes=2)
    def test_fields_describe_the_request(self, keys, nodes):
        keys = np.array(keys, dtype=np.uint64)
        plan = HashPartitioner(nodes).plan(keys)
        assert len(plan) == len(keys) and plan.shape == keys.shape
        assert np.array_equal(plan.unique, np.unique(keys))
        assert np.array_equal(plan.unique[plan.inverse], keys)
        assert plan.first.tolist() == [keys.tolist().index(k) for k in plan.unique.tolist()]
        routed = []
        for node, positions, shard_keys in plan.shards:
            assert len(shard_keys) and np.array_equal(shard_keys, plan.unique[positions])
            assert all(plan.partitioner.node_of(k) == node for k in shard_keys.tolist())
            routed.extend(shard_keys.tolist())
        assert sorted(routed) == plan.unique.tolist()

    def test_a_plan_is_built_once_and_split_again_under_other_routing(self):
        keys = np.array([[7, TOP, 7], [0, 3, TOP]], dtype=np.uint64)
        two, three = ConsistentHashRing(2), ConsistentHashRing(3)
        plan = two.plan(keys)
        assert two.plan(plan) is plan
        moved = three.plan(plan)
        assert moved.partitioner is three and moved.shape == (2, 3)
        for field in ("unique", "inverse", "first"):
            assert getattr(moved, field) is getattr(plan, field)
        assert [
            (node, shard_keys.tolist()) for node, __, shard_keys in moved.shards
        ] == [(node, shard_keys.tolist()) for node, __, shard_keys in three.plan(keys).shards]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestAgainstRawKeys:
    @settings(max_examples=25)
    @given(keys=KEYS, nodes=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(keys=[], nodes=2, seed=0)
    @example(keys=[9] * 7, nodes=3, seed=1)
    @example(keys=[0, TOP, 0, 5, TOP, 0, TOP], nodes=2, seed=2)
    def test_rows_and_state_match_a_node_fed_raw_keys(self, transport, keys, nodes, seed):
        keys = np.array(keys, dtype=np.uint64)
        server = TRANSPORTS[transport](config(nodes), CacheConfig(), PSAdagrad(lr=0.05))
        reference = PSNode(0, config(1), CacheConfig(), PSAdagrad(lr=0.05))
        plan = server.plan(keys)

        pulled = server.pull(plan, 0)
        assert pulled.weights.shape == (len(keys), DIM)
        expected = reference.pull(keys, 0).weights
        assert [bits(row) for row in pulled.weights] == [bits(row) for row in expected]
        assert pulled.created == len(plan.unique)  # counted per distinct key

        grads = gradients(len(keys), seed)
        server.maintain(0)
        reference.maintain(0)
        assert server.push(plan, grads, 0) == reference.push(keys, grads, 0)
        for key in plan.unique.tolist():
            node = server.nodes[server.partitioner.node_of(key)]
            assert bits(node.cache.read_current_state(key)) == bits(
                reference.cache.read_current_state(key)
            )
        again = server.pull(keys, 1).weights  # plain keys: planned inside
        assert [bits(row) for row in again] == [
            bits(reference.read_weights(key)) for key in keys.tolist()
        ]


# ----------------------------------------------------------------------
# the guard: one plan per worker key matrix, no split on the way
# ----------------------------------------------------------------------


@pytest.fixture
def routing(monkeypatch):
    """Counts plan builds (a plan handed back in is not a build) and
    ``HashPartitioner.split`` calls."""
    counts = {"builds": [], "splits": 0}
    real_plan, real_split = HashPartitioner.plan, HashPartitioner.split

    def plan(self, keys):
        if not isinstance(keys, KeyPlan):
            counts["builds"].append(np.size(keys))
        return real_plan(self, keys)

    def split(self, keys):
        counts["splits"] += 1
        return real_split(self, keys)

    monkeypatch.setattr(HashPartitioner, "plan", plan)
    monkeypatch.setattr(HashPartitioner, "split", split)
    return counts


FIELDS, BATCH = 3, 8


def model_and_data():
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=40, seed=3)
    return DeepFM(FIELDS, DIM, hidden=(8,), use_first_order=False, seed=1), dataset


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestRoutedOnce:
    def test_a_synchronous_step_plans_each_worker_once(self, transport, routing):
        backend = TRANSPORTS[transport](config(2), CacheConfig(), PSAdagrad(lr=0.05))
        model, dataset = model_and_data()
        trainer = SynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=BATCH, dense_optimizer=Adam()
        )
        trainer.step()
        assert routing == {"builds": [BATCH * FIELDS] * 2, "splits": 0}

    @pytest.mark.parametrize("track_progress", [False, True])
    def test_an_asynchronous_round_plans_each_step_once(self, transport, track_progress, routing):
        backend = TRANSPORTS[transport](config(2), CacheConfig(), PSAdagrad(lr=0.05))
        model, dataset = model_and_data()
        trainer = AsynchronousTrainer(
            backend, model, dataset, num_workers=2, batch_size=BATCH, staleness=1,
            dense_optimizer=Adam(), track_progress=track_progress,
        )
        trainer.run_steps(4)
        assert trainer.stats.steps == 4 and trainer.pending_pushes == 1
        assert routing == {"builds": [BATCH * FIELDS] * 4, "splits": 0}
