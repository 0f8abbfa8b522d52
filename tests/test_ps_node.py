"""PSNode: pull/maintain/push lifecycle, determinism, crash handoff."""

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.hash_index import HashIndex
from repro.core.optimizers import PSAdagrad
from repro.core.recovery import recover_node
from repro.core.replication import ReplicatedPSNode
from repro.core.server import OpenEmbeddingServer
from repro.errors import (
    CheckpointError, KeyNotFoundError, OutOfSpaceError, ReproError, ServerError,
)
from repro.network.frontend import RemotePSClient
from repro.network.messages import MigrateRequest, StatusResponse, decode_message, encode_message
from repro.network.service import PSNodeService
from repro.pmem.space import NO_ENTRIES, EntryBlock

from tests.conftest import DIM, make_node
from tests.harness.keyed_store import keyed


def grads(n, value=1.0):
    return np.full((n, DIM), value, dtype=np.float32)


class TestLifecycle:
    def test_pull_maintain_push(self, node):
        result = node.pull([1, 2], 0)
        assert result.created == 2
        node.maintain(0)
        assert node.push([1, 2], grads(2), 0) == 2
        assert node.latest_completed_batch == 0

    def test_num_entries(self, node):
        node.pull([1, 2, 3], 0)
        assert node.num_entries == 3

    def test_state_snapshot(self, node):
        node.pull([1, 2], 0)
        node.maintain(0)
        snapshot = node.state_snapshot()
        assert set(snapshot) == {1, 2}

    def test_initializer_is_key_deterministic(self):
        """Initial weights depend only on (seed, key), never on order."""
        a = make_node(seed=3)
        b = make_node(seed=3)
        a.pull([5, 9], 0)
        b.pull([9], 0)
        b.pull([5], 1)
        assert np.array_equal(a.read_weights(5), b.read_weights(5))
        assert np.array_equal(a.read_weights(9), b.read_weights(9))

    def test_different_seeds_differ(self):
        a = make_node(seed=1)
        b = make_node(seed=2)
        a.pull([5], 0)
        b.pull([5], 0)
        assert not np.array_equal(a.read_weights(5), b.read_weights(5))


class TestOptimizerState:
    def test_adagrad_state_survives_eviction(self):
        node = make_node(capacity_entries=1, optimizer=PSAdagrad(lr=0.1))
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        after_first = np.array(node.read_weights(1), copy=True)
        # Evict key 1 by touching key 2, then update key 1 again: the
        # accumulator must have persisted, so the second step is smaller.
        node.pull([2], 1)
        node.maintain(1)
        node.push([2], grads(1), 1)
        node.pull([1], 2)
        node.maintain(2)
        node.push([1], grads(1), 2)
        first_step = np.abs(after_first - np.full(DIM, node.read_weights(1)[0]))
        state = node.cache.read_current_state(1)[DIM:]
        assert state.shape == (DIM,)
        # accumulator grew: 0.1 (init) + 1 + 1
        assert np.allclose(state, 2.1)


    def test_ingested_row_of_wrong_width_is_a_typed_error(self):
        """Rows written without the accumulator (an SGD node's export)
        cannot become an Adagrad node's slab rows: the ingest is refused
        whole, with an error naming both widths, instead of silently
        changing storage."""
        node = make_node(optimizer=PSAdagrad(lr=0.1))
        block = EntryBlock(
            keys=np.array([6, 7], dtype=np.uint64),
            nversions=np.array([1, 1], dtype=np.uint32),
            batch_ids=np.array([3, 3], dtype=np.int64),
            rows=np.ones((2, DIM), dtype=np.float32),
        )
        with pytest.raises(
            ServerError, match=rf"rows are {DIM} floats wide.* are {2 * DIM} "
        ):
            node.ingest_entries(block)
        assert node.num_entries == 0 and node.store.total_versions() == 0
        node.cache.validate()


class TestCheckpointControl:
    def test_request_without_training_rejected(self, node):
        with pytest.raises(CheckpointError):
            node.request_checkpoint()

    def test_request_defaults_to_latest_batch(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        assert node.request_checkpoint() == 0
        assert node.coordinator.head() == 0

    def test_barrier_checkpoint_completes(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        node.barrier_checkpoint()
        assert node.coordinator.last_completed == 0


class TestCrash:
    def test_crash_returns_surviving_pool(self, node):
        node.pull([1], 0)
        node.maintain(0)
        node.push([1], grads(1), 0)
        node.barrier_checkpoint()
        pool = node.crash()
        assert pool is node.pool
        assert pool.root.get("checkpointed_batch_id") == 0


class TestRowsOfAnotherWidth:
    """A migration PUT whose rows are 0 floats wide (``width=0``) was
    acked ``OK`` by a node that stores wider rows: it then served
    uninitialized memory from ``lookup`` and died in ``pull``. A block
    whose rows are not the node's width is refused whole."""

    PUT = MigrateRequest(
        op=MigrateRequest.OP_PUT,
        source=1,
        seq=1,
        width=0,
        entries=EntryBlock(
            keys=np.array([7, 8], dtype=np.uint64),
            nversions=np.ones(2, dtype=np.uint32),
            batch_ids=np.zeros(2, dtype=np.int64),
            rows=np.empty((2, 0), dtype=np.float32),
        ),
    )

    def test_the_node_refuses_the_block(self):
        node = make_node()
        block = decode_message(encode_message(self.PUT)).entries
        with pytest.raises(ServerError, match="rows are 0 floats wide"):
            node.ingest_entries(block)
        assert node.num_entries == 0 and node.store.total_versions() == 0

    def test_the_service_answers_err_server(self):
        node = make_node()
        reply = PSNodeService(node).server.dispatch(encode_message(self.PUT))
        assert decode_message(reply).code == StatusResponse.ERR_SERVER
        assert node.num_entries == 0
        node.seal_at(0)
        served = node.lookup([7, 8], 0)
        assert served.cold == 2
        assert np.array_equal(served.weights, node.cache.initial_rows(self.PUT.entries.keys))

    def test_the_empty_block_is_still_a_no_op(self):
        node = make_node()
        node.pull([1], 0)
        assert node.ingest_entries(NO_ENTRIES) == 0 and node.num_entries == 1


class TestQueuedAccessHazards:
    """Accesses wait in the queue between a pull and its maintenance
    round; what happens to the node in between must not corrupt it."""

    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_pull_queued_ahead_waits_for_its_own_round(self, transport):
        """Regression: a pull of a later batch queued behind the round at
        hand (a prefetch window) made ``maintain`` raise — after it had
        dequeued the round's own accesses, which were then lost: resident
        rows never listed, never evictable."""
        server_config = ServerConfig(
            num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 22
        )
        build = OpenEmbeddingServer if transport == "local" else RemotePSClient
        backend = build(server_config, CacheConfig(capacity_bytes=8 * DIM * 4))
        backend.pull([1, 2], 5)
        backend.pull([3], 6)
        assert [r.processed for r in backend.maintain(5)] == [2]
        cache = backend.nodes[0].cache
        assert sorted(cache.cached_keys()) == [1, 2]
        assert [r.processed for r in backend.maintain(6)] == [1]
        assert cache.cached_keys() == [3, 2, 1]
        cache.validate()

    def test_key_dropped_between_its_pull_and_its_round(self):
        """Regression: ``drop_keys`` (the source side of a reshard) on a
        key with a queued access left a ghost — listed, counted against
        capacity, absent from the index, its arena row freed — that a
        later round died on with a raw ``KeyError``. With slots the same
        access would alias whichever key re-uses the slot."""
        node = make_node(capacity_entries=2)
        node.pull([1, 2], 1)
        assert node.drop_keys([1]) == 1
        # Key 9 takes the slot key 1 gave up while 1's access is queued.
        node.pull([9], 1)
        assert node.cache.index.find(9).slot == 0
        assert node.maintain(1).processed == 2  # keys 2 and 9; not 1, not 9 twice
        node.cache.validate()
        assert node.cache.cached_keys() == [9, 2]
        assert node.cache.index.find(9).version == 1
        node.push([2, 9], grads(2), 1)
        for batch_id, keys in enumerate(([3, 4], [5, 2], [9, 3]), start=2):
            node.pull(keys, batch_id)
            assert node.maintain(batch_id).evictions == 2  # no ghost in the way
            node.cache.validate()
        assert not keyed(node).has(1) and 1 not in node.owned_keys()
        # Re-ingested, key 1 is an ordinary PMem-resident key again.
        row = np.arange(DIM, dtype=np.float32)[None, :]
        block = EntryBlock(
            np.array([1], np.uint64), np.array([1], np.uint32), np.array([0]), row
        )
        assert node.ingest_entries(block) == 1
        result = node.pull([1], 5)
        assert (result.misses, result.created) == (1, 0)
        assert np.array_equal(result.weights, row)
        assert node.maintain(5).loads == 1
        node.cache.validate()


class TestRecycledSlot:
    def test_a_recycled_slot_starts_without_a_head(self):
        """Key 1 leaves the node with durable versions behind it; key 9
        is created in the slot it gave up. 9's first flush must open its
        own chain, not land on top of what 1's head pointed at."""
        node = make_node(capacity_entries=2)
        for batch_id, keys in enumerate(([1, 2], [3, 4])):
            node.pull(keys, batch_id)
            node.maintain(batch_id)
            node.push(keys, grads(2), batch_id)
        slot = node.cache.index.find(1).slot
        assert keyed(node).versions_of(1) == [0] and node.cache.index.find(1).head >= 0
        assert node.drop_keys([1]) == 1 and node.store.total_versions() == 1
        (key_2,) = np.flatnonzero(node.store.slab.live)  # 1's slab slot is free again
        node.pull([9], 2)
        entry = node.cache.index.find(9)
        assert (entry.slot, entry.head) == (slot, -1)
        node.maintain(2)
        node.push([9], grads(1), 2)
        node.pull([3, 4], 3)
        assert node.maintain(3).evictions == 1  # 9 leaves: the round touches 3 and 4
        assert keyed(node).versions_of(9) == [2]
        head = node.cache.index.find(9).head
        assert node.store.slab.key[head] == 9 and node.store._older[head] == -1
        assert keyed(node).versions_of(2) == [0] and node.store.slab.live[key_2]
        node.cache.validate()


class TestPoolTooSmallForTheRound:
    """A maintenance round whose flushes the pool cannot hold is refused
    whole (per segment), before any column is written — it used to raise
    from the bulk ``store.put`` *after* the plan had rewritten the
    columns, leaving trained rows tagged PMEM with no stored version."""

    SLOTS = 12  # pool rows; the cache holds 4

    def build(self, transport: str, pool_rows: int):
        server_config = ServerConfig(
            num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=pool_rows * DIM * 4
        )
        build = OpenEmbeddingServer if transport == "local" else RemotePSClient
        return build(server_config, CacheConfig(capacity_bytes=4 * DIM * 4))

    @staticmethod
    def step(backend, batch_id: int, keys, *, maintain: bool = True):
        backend.pull(keys, batch_id)
        if maintain:
            backend.maintain(batch_id)
            backend.push(keys, np.ones((len(keys), DIM), dtype=np.float32), batch_id)

    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_refused_round_corrupts_nothing_and_finishes_once_room_exists(self, transport):
        small = self.build(transport, self.SLOTS)
        big = self.build(transport, 1 << 16)  # the same run, never short of room
        for batch_id in range(4):
            keys = list(range(4 * batch_id, 4 * batch_id + 4))
            self.step(small, batch_id, keys)
            self.step(big, batch_id, keys)
        node, twin = small.nodes[0], big.nodes[0]
        assert node.pool.free_bytes == 0  # keys 0..11 fill it; 12..15 are in DRAM

        # Round 4 loads 0..3 and must evict 12..15 (trained at batch 3,
        # never stored) — four rows the pool has no room for.
        self.step(small, 4, [0, 1, 2, 3], maintain=False)
        self.step(big, 4, [0, 1, 2, 3], maintain=False)
        for __ in range(2):  # refused, and refused again: nothing changes
            with pytest.raises(ReproError):
                small.maintain(4)
            node.cache.validate()
            assert node.cache.access_queue.pending_entries == 4  # queued, for batch 4
            assert sorted(node.cache.cached_keys()) == [12, 13, 14, 15]
            trained = twin.state_snapshot()
            for key, weights in node.state_snapshot().items():
                assert np.array_equal(weights, trained[key]), f"key {key}"

        # Room appears (a reshard moves keys away): the round finishes,
        # and training goes on as it does on the big pool.
        for owner in (node, twin):
            assert owner.drop_keys(range(4, 12)) == 8
        assert [r.processed for r in small.maintain(4)] == [4]
        big.maintain(4)
        for backend in (small, big):
            backend.push([0, 1, 2, 3], np.ones((4, DIM), dtype=np.float32), 4)
        for batch_id, keys in enumerate(([12, 13, 14, 15], [0, 1, 14, 15], [2, 3, 12]), start=5):
            self.step(small, batch_id, keys)
            self.step(big, batch_id, keys)
            node.cache.validate()
        assert node.metrics.cache.evictions == twin.metrics.cache.evictions == 25
        trained = twin.state_snapshot()
        assert sorted(node.state_snapshot()) == sorted(trained) == [0, 1, 2, 3, 12, 13, 14, 15]
        for key, weights in node.state_snapshot().items():
            assert np.array_equal(weights, trained[key]), f"key {key}"

    def test_a_long_round_keeps_what_fitted(self):
        """A round cut into segments (here of keys it creates): the ones
        that fit have moved when a later one is refused; the rest stays
        queued, and no trained or created row is lost."""
        node = self.build("local", self.SLOTS).nodes[0]
        expected = {key: node.pull([key], 0).weights[0] for key in range(40)}
        with pytest.raises(OutOfSpaceError):
            node.maintain(0)  # ten segments of four; three fit
        assert node.pool.free_bytes == 0 and node.metrics.cache.evictions == self.SLOTS
        assert node.cache.access_queue.pending_entries == 40 - 4 - self.SLOTS
        assert node.drop_keys(range(12)) == 12
        with pytest.raises(OutOfSpaceError):  # twelve more fit, not all
            node.maintain(0)
        assert node.cache.access_queue.pending_entries == 40 - 4 - 2 * self.SLOTS
        node.cache.index.validate()
        for key in range(12, 40):
            assert np.array_equal(node.read_weights(key), expected[key])


class TestCompletionWithoutEvictions:
    @pytest.mark.parametrize("transport", ("local", "rpc"))
    def test_requested_checkpoints_complete_in_an_all_hit_cache(self, transport):
        """Regression: 3 000 keys in a 4 000-row cache, pulled, maintained
        and pushed every step, with a checkpoint requested every fifth.
        Completion used to be a victim test, and an all-hit cache has no
        victims: after 300 steps all 60 requests were pending and every
        key held 60 retained versions. Now the round after a request
        finds no row owing it, so the queue stays short and so does the
        version chain."""
        server_config = ServerConfig(num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 22)
        cache_config = CacheConfig(capacity_bytes=4000 * DIM * 4)
        build = OpenEmbeddingServer if transport == "local" else RemotePSClient
        backend = build(server_config, cache_config)
        node = backend.nodes[0]
        keys = np.arange(3000, dtype=np.uint64)
        step_grads = np.full((len(keys), DIM), 0.01, dtype=np.float32)
        for step in range(300):
            backend.pull(keys, step)
            backend.maintain(step)
            backend.push(keys, step_grads, step)
            if step % 5 == 0:
                backend.request_checkpoint(step)
            pending = len(node.coordinator.queue)
            stored = np.count_nonzero(node.cache.index.columns.head >= 0)
            assert pending <= 2, step
            assert node.store.slab.rows <= (pending + 2) * stored, step
        assert node.metrics.cache.evictions == 0
        requested = node.coordinator.queue.total_requested
        assert requested == 60 and node.coordinator.completed_count >= requested - 2


# ----------------------------------------------------------------------
# a push reuses its pull's slots
# ----------------------------------------------------------------------

KEYS = np.arange(3, 40, 3, dtype=np.uint64)  # 13 ascending keys, 8 fit the cache
EXTRA = np.uint64(1000)


@pytest.fixture
def probes(monkeypatch):
    """Counts ``HashIndex.lookup`` calls, on every index."""
    calls = []
    lookup = HashIndex.lookup

    def counted(index, keys):
        calls.append(len(keys))
        return lookup(index, keys)

    monkeypatch.setattr(HashIndex, "lookup", counted)
    return calls


def adagrad_node(replicated: bool = False):
    if not replicated:
        return make_node(capacity_entries=8, optimizer=PSAdagrad(0.05))
    return ReplicatedPSNode(
        0, ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22),
        CacheConfig(capacity_bytes=8 * DIM * 4), PSAdagrad(0.05),
    )


def batch_grads(n, batch):
    return np.random.default_rng(batch).standard_normal((n, DIM)).astype(np.float32)


def warm(node, batches=2):
    """Full batches over ``KEYS`` and ``EXTRA`` (a checkpoint after the first)."""
    keys = np.append(KEYS, EXTRA)
    for batch in range(batches):
        node.pull(keys, batch)
        node.maintain(batch)
        node.push(keys, batch_grads(len(keys), batch), batch)
        if batch == 0:
            node.request_checkpoint(0)


def fingerprint(node):
    """What a push writes: every key's packed state (any tier), its
    columns, and the node's counters."""
    cache = node.cache
    columns = cache.index.columns
    slots = columns.live()
    slots = slots[np.argsort(columns.key[slots])]
    keys = columns.key[slots].tolist()
    names = ("version", "updated", "dirty", "referenced", "stamp", "head", "handle")
    return (
        keys,
        [cache.read_current_state(key).tobytes() for key in keys],
        [getattr(columns, name)[slots].tolist() for name in names],
        dataclasses.asdict(node.metrics),
    )


def reused_and_resolved(script, probes):
    """``script(push)`` run twice: as it is, and with every push
    resolving its keys (the node's pull records forgotten first — the
    path before a push could reuse its pull's slots). Returns both runs'
    fingerprints and index probes made inside pushes."""
    runs = []
    for forget in (False, True):
        inside = []

        def push(node, keys, batch, forget=forget, inside=inside):
            for replica in (getattr(node, "primary", node), getattr(node, "backup", None)):
                if forget and replica is not None:
                    replica.cache._pulled.clear()
            before = len(probes)
            try:
                return node.push(keys, batch_grads(len(keys), batch), batch)
            finally:
                inside.append(len(probes) - before)

        node = script(push)
        runs.append((fingerprint(node), inside))
    return runs


class TestSlotReuse:
    def test_a_push_of_its_pulls_keys_probes_the_index_once(self, probes):
        """pull -> maintain -> push of one ascending key array: the pull
        probes the index, the push applies to the slots it resolved."""
        node = adagrad_node()
        warm(node)
        del probes[:]
        node.pull(KEYS, 2)
        after_pull = len(probes)
        node.maintain(2)
        after_maintain = len(probes)
        node.push(KEYS, batch_grads(len(KEYS), 2), 2)
        assert (after_pull, after_maintain, len(probes)) == (1, 1, 1)
        node.cache.validate()

    def test_a_facade_push_probes_no_shard(self, probes):
        """The facade sends each shard its distinct keys ascending, so
        every shard's push reuses its pull's slots, repeats and all."""
        server = OpenEmbeddingServer(
            ServerConfig(num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22),
            CacheConfig(capacity_bytes=64 * DIM * 4), PSAdagrad(0.05),
        )
        keys = np.array([[40, 3, 9], [3, 77, 40]], dtype=np.uint64)
        plan = server.plan(keys)
        server.pull(plan, 0)
        server.maintain(0)
        del probes[:]
        server.push(plan, batch_grads(6, 0), 0)
        assert probes == []

    def test_the_reused_path_lands_what_resolving_lands(self, probes):
        def script(push):
            node = adagrad_node()
            warm(node)
            for batch in (2, 3):
                node.pull(KEYS, batch)
                node.maintain(batch)
                push(node, KEYS, batch)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [0, 0]

    def test_a_key_array_mutated_after_its_pull_is_resolved(self, probes):
        """The record holds its own copy of the keys."""
        def script(push):
            node = adagrad_node()
            warm(node)
            keys = KEYS.copy()
            node.pull(keys, 2)
            node.maintain(2)
            keys[4] = EXTRA  # the caller reuses its buffer
            push(node, keys, 2)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [1]

    def test_keys_that_differ_only_inside_are_resolved(self, probes):
        """Same length, same first and last key as the pull: not its keys."""
        def script(push):
            node = adagrad_node()
            warm(node)
            node.pull(KEYS, 2)
            node.maintain(2)
            keys = KEYS.copy()
            keys[6] += 1  # still ascending; created by no pull
            node.pull(keys[6:7], 2)
            push(node, keys, 2)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [1]

    def test_a_key_dropped_after_the_pull_voids_every_record(self, probes):
        """``drop_keys`` frees a slot: no record of the batch is trusted."""
        def script(push):
            node = adagrad_node()
            warm(node)
            node.pull(KEYS[:6], 2)
            node.pull(KEYS[6:], 2)
            node.maintain(2)
            node.drop_keys([KEYS[-1]])
            push(node, KEYS[:6], 2)
            with pytest.raises(KeyNotFoundError):
                push(node, KEYS[6:], 2)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [1, 1]

    @pytest.mark.parametrize(
        "keys", [np.repeat(KEYS, 2), KEYS[::-1].copy()], ids=["repeats", "descending"]
    )
    def test_a_pull_with_repeats_or_out_of_order_is_not_recorded(self, probes, keys):
        def script(push):
            node = adagrad_node()
            warm(node)
            node.pull(keys, 2)
            node.maintain(2)
            push(node, keys, 2)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [1]

    def test_a_recovered_node_resolves_the_push(self, probes):
        def script(push):
            node = adagrad_node()
            warm(node)
            node.barrier_checkpoint(1)
            node.pull(KEYS, 2)
            node.maintain(2)
            recovered, __ = recover_node(
                node.crash(), node.server_config, node.cache_config, PSAdagrad(0.05)
            )
            push(recovered, KEYS, 2)
            return recovered

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [1]

    def test_a_promoted_replica_reuses_its_own_pull(self, probes):
        """The backup replayed the pull into its own cache, so the
        promoted replica's push applies to the slots it resolved."""
        def script(push):
            node = adagrad_node(replicated=True)
            warm(node)
            node.pull(KEYS, 2)
            node.maintain(2)
            node.kill_primary()
            node.failover()
            push(node, KEYS, 2)
            node.pull(KEYS, 3)
            node.maintain(3)
            push(node, KEYS, 3)
            return node

        (reused, probed), (resolved, _) = reused_and_resolved(script, probes)
        assert reused == resolved and probed == [0, 0]
