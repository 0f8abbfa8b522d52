"""Property test: the arena-backed cache is bitwise-identical to the
per-key dict-backed oracle.

Two PS nodes run the SAME hypothesis-generated interleaving of
pull/maintain/push (with duplicate keys), checkpoint requests, forced
eviction (``drop_cache``) and a wire-framed migration roundtrip — one
with the production :class:`~repro.core.cache.PipelinedCache`, one with
``tests/harness/reference_cache.py`` installed in its place. Everything
observable must match to the bit: pulled weights, live state, durable
store contents *including optimizer state after eviction and reload*,
and the metrics counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, EvictionPolicy, ServerConfig
from repro.core.optimizers import PSAdagrad, PSSGD
from repro.core.ps_node import PSNode
from repro.network.messages import (
    MigrateResponse,
    decode_message,
    encode_message,
)
from tests.harness.reference_cache import install_reference_cache
from tests.harness.keyed_store import keyed

DIM = 3
NUM_KEYS = 10


def schedule_strategy():
    """Per batch: keys (duplicates allowed), float64-gradient flag,
    checkpoint-request flag, drop-cache flag."""
    batch = st.tuples(
        st.lists(st.integers(0, NUM_KEYS - 1), min_size=1, max_size=6),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    return st.lists(batch, min_size=2, max_size=10)


def make_node(
    arena: bool,
    capacity_entries: int,
    optimizer,
    **cache_options,
) -> PSNode:
    """``arena=False`` builds the node around the per-key oracle."""
    entry_bytes = (DIM + optimizer.state_width(DIM)) * 4
    server_config = ServerConfig(
        embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=7
    )
    cache_config = CacheConfig(
        capacity_bytes=capacity_entries * entry_bytes, **cache_options
    )
    node = PSNode(0, server_config, cache_config, optimizer)
    return node if arena else install_reference_cache(node)


def drive(node: PSNode, schedule) -> list[np.ndarray]:
    """Run the schedule; returns the pulled weights of every batch."""
    pulled = []
    for batch_id, (keys, f64, ckpt, drop) in enumerate(schedule):
        result = node.pull(keys, batch_id)
        pulled.append(np.array(result.weights, copy=True))
        node.maintain(batch_id)
        rng = np.random.default_rng((batch_id, 3))
        grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
        if f64:
            # The float32 coercion at the aggregation boundary must make
            # a float64 push arithmetically indistinguishable.
            grads = grads.astype(np.float64)
        node.push(keys, grads, batch_id)
        if ckpt and batch_id > node.coordinator.last_completed:
            pending = node.coordinator.queue.pending()
            if not pending or pending[-1] < batch_id:
                node.coordinator.request(batch_id)
        if drop:
            node.cache.drop_cache()
        node.cache.validate()
    return pulled


def step(node: PSNode, rng, keys, batch_id: int):
    """One serial pull -> maintain -> push round; returns the pull."""
    result = node.pull(keys, batch_id)
    node.maintain(batch_id)
    grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
    node.push(keys, grads, batch_id)
    node.cache.validate()
    return result


def store_dump(node: PSNode) -> dict:
    """Every durable (key, version) -> packed bytes (weights + state)."""
    dump = {}
    for key in node.cache.index.keys():
        for version in keyed(node).versions_of(key):
            __, stored = keyed(node).read_at_most([key], version)
            dump[(key, version)] = None if stored is None else stored[0].tobytes()
    return dump


def metrics_tuple(node: PSNode) -> tuple:
    m = node.metrics
    return (
        m.pulls,
        m.updates,
        m.entries_created,
        m.cache.hits,
        m.cache.misses,
        m.cache.loads,
        m.cache.flushes,
        m.cache.evictions,
        m.pmem_flush_entries,
    )


class TestArenaEquivalence:
    @given(
        schedule=schedule_strategy(),
        capacity=st.integers(1, NUM_KEYS + 2),
        adagrad=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bitwise_equal_to_reference_path(self, schedule, capacity, adagrad):
        make_opt = (
            (lambda: PSAdagrad(lr=0.1)) if adagrad else (lambda: PSSGD(lr=0.25))
        )
        fast = make_node(arena=True, capacity_entries=capacity, optimizer=make_opt())
        ref = make_node(arena=False, capacity_entries=capacity, optimizer=make_opt())

        pulled_fast = drive(fast, schedule)
        pulled_ref = drive(ref, schedule)
        for batch_id, (a, b) in enumerate(zip(pulled_fast, pulled_ref)):
            assert np.array_equal(a, b), f"pulled weights differ at batch {batch_id}"

        snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
        assert set(snap_fast) == set(snap_ref)
        for key in snap_fast:
            assert np.array_equal(snap_fast[key], snap_ref[key]), f"key {key}"

        # Durable contents — the packed bytes include optimizer state,
        # so Adagrad accumulators surviving eviction + reload must match.
        assert store_dump(fast) == store_dump(ref)
        assert metrics_tuple(fast) == metrics_tuple(ref)

    @given(
        schedule=schedule_strategy(),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_migration_roundtrip_preserves_bits(self, schedule, capacity):
        """Export -> wire-frame -> ingest lands the identical bits on an
        arena node, including per-version optimizer state."""
        src = make_node(arena=False, capacity_entries=capacity, optimizer=PSAdagrad())
        drive(src, schedule)
        last = len(schedule) - 1
        # The schedule may already have queued a checkpoint at ``last``;
        # complete whatever is pending, then barrier only if needed —
        # either way the newest durable version equals the live state.
        src.complete_pending_checkpoints()
        if last > src.coordinator.last_completed:
            src.barrier_checkpoint(last)
        keys = sorted(src.owned_keys())
        width = DIM + PSAdagrad().state_width(DIM)
        frame = encode_message(
            MigrateResponse(width=width, entries=src.export_entries(keys))
        )
        decoded = decode_message(bytes(frame))

        dst = make_node(arena=True, capacity_entries=capacity, optimizer=PSAdagrad())
        assert dst.ingest_entries(decoded.entries) == len(keys)
        dst.seal_at(last)
        snap_src, snap_dst = src.state_snapshot(), dst.state_snapshot()
        assert set(snap_src) == set(snap_dst)
        for key in keys:
            assert np.array_equal(snap_src[key], snap_dst[key])
        assert store_dump(src) == store_dump(dst)

        # Training continues on the ingested node: loads promote the
        # transferred rows into the arena and the fast path takes over.
        extra = [(keys[:4] or [0], False, False, False)]
        ref = make_node(arena=False, capacity_entries=capacity, optimizer=PSAdagrad())
        assert ref.ingest_entries(decoded.entries) == len(keys)
        ref.seal_at(last)
        for batch_id, step in enumerate(extra, start=last + 1):
            ka = step[0]
            a = dst.pull(ka, batch_id)
            b = ref.pull(ka, batch_id)
            assert np.array_equal(a.weights, b.weights)
            dst.maintain(batch_id)
            ref.maintain(batch_id)
            grads = np.full((len(ka), DIM), 0.25, dtype=np.float32)
            dst.push(ka, grads, batch_id)
            ref.push(ka, grads, batch_id)
        for key in keys:
            assert np.array_equal(
                dst.cache.read_current_weights(key),
                ref.cache.read_current_weights(key),
            )


class TestArenaGrowsMidPull:
    """One pull the 10-key hypothesis schedules cannot produce: enough
    never-seen keys to double the arena while the same pull also serves
    resident and PMem-cold keys."""

    NEW_KEYS = 320  # more than arena.INITIAL_ROWS: forces a doubling
    WARM = list(range(40))
    NEW = list(range(1000, 1000 + NEW_KEYS))
    # resident 20..39, then new keys around PMem-cold 0..19, with one
    # new key and one resident key a second time.
    MIXED = WARM[20:] + NEW[:160] + WARM[:20] + [NEW[0]] + NEW[160:] + [WARM[25]]
    FOLLOW_UP = NEW[::3] + WARM[:10] + list(range(5000, 5200))

    def run(self, node: PSNode) -> list:
        rng = np.random.default_rng(5)
        step(node, rng, self.WARM, 0)
        node.cache.drop_cache()  # everything PMem-cold ...
        step(node, rng, self.WARM[20:], 1)  # ... then 20..39 resident again
        pulled = step(node, rng, self.MIXED, 2)
        node.coordinator.request(2)
        # Capacity is 400 rows: this round evicts and flushes under a
        # pending checkpoint; the last one reloads what was evicted.
        after = step(node, rng, self.FOLLOW_UP, 3)
        node.cache.drop_cache()
        return [pulled, after, step(node, rng, self.MIXED, 4)]

    def test_mixed_pull_across_a_doubling_matches_oracle(self):
        fast = make_node(arena=True, capacity_entries=400, optimizer=PSAdagrad(lr=0.1))
        ref = make_node(arena=False, capacity_entries=400, optimizer=PSAdagrad(lr=0.1))
        rows_at_start = fast.cache.arena.capacity
        pulls_fast, pulls_ref = self.run(fast), self.run(ref)
        assert fast.cache.arena.capacity > rows_at_start

        mixed = pulls_fast[0]
        assert (mixed.hits, mixed.misses, mixed.created) == (22, 20, self.NEW_KEYS)
        for a, b in zip(pulls_fast, pulls_ref):
            assert (a.hits, a.misses, a.created) == (b.hits, b.misses, b.created)
            assert np.array_equal(a.weights, b.weights)
        snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
        assert set(snap_fast) == set(snap_ref)
        for key in snap_fast:
            assert np.array_equal(snap_fast[key], snap_ref[key]), f"key {key}"
        assert store_dump(fast) == store_dump(ref)
        assert metrics_tuple(fast) == metrics_tuple(ref)
        assert fast.metrics.cache.evictions > 0 and fast.metrics.cache.loads > 0


class TestPushToPmemResidentKeys:
    def test_read_modify_write_matches_oracle(self):
        """Behind the admission filter a pulled key stays in PMem, so its
        push is a read-modify-write through the store — here in one push
        with resident keys and duplicates of both."""
        nodes = [
            make_node(
                arena=arena,
                capacity_entries=8,
                optimizer=PSAdagrad(lr=0.1),
                admission_threshold=3,
            )
            for arena in (True, False)
        ]
        for node in nodes:
            rng = np.random.default_rng(9)
            step(node, rng, [0, 1, 2, 3], 0)
            node.cache.drop_cache()
            node.coordinator.request(0)
            step(node, rng, [0, 7, 1, 0, 7, 2], 1)  # 0, 1, 2 seen once: not admitted
            assert node.cache.cached_keys() == [7]
            step(node, rng, [2, 0, 8], 2)
        fast, ref = nodes
        assert fast.metrics.pmem_flush_entries > fast.metrics.cache.flushes
        snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
        for key in snap_ref:
            assert np.array_equal(snap_fast[key], snap_ref[key]), f"key {key}"
        assert store_dump(fast) == store_dump(ref)
        assert metrics_tuple(fast) == metrics_tuple(ref)


class TestMaintainPlanHazards:
    """The rounds where moving rows in bulk can go wrong.

    ``maintain`` plans a whole round on metadata and then moves the rows
    as a few blocks; the oracle moves each row the moment Algorithm 2
    says so. Every round here makes the two orders differ — a row that
    arrives and leaves inside one round, a row flushed twice, a
    checkpoint completing between two flushes — and everything
    observable must still match: the round's counts, the ten metrics
    counters, the LRU list order, every durable version and the rows
    served afterwards.
    """

    def pair(self, capacity: int, **cache_options):
        return [
            make_node(
                arena=arena,
                capacity_entries=capacity,
                optimizer=PSAdagrad(lr=0.1),
                **cache_options,
            )
            for arena in (True, False)
        ]

    @staticmethod
    def round(nodes, keys, batch_id: int, *, push: bool = True, more=()):
        """One pull -> maintain (-> push) round on both nodes; compares
        what the round returned and everything it left behind. ``more``
        are further pulls of the same round (other workers')."""
        pulls = [node.pull(keys, batch_id) for node in nodes]
        for extra in more:
            for node in nodes:
                node.pull(extra, batch_id)
            keys = keys + extra
        rounds = [node.maintain(batch_id) for node in nodes]
        assert rounds[0] == rounds[1]
        if push:
            rng = np.random.default_rng((batch_id, 5))
            grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
            for node in nodes:
                node.push(keys, grads, batch_id)
        fast, ref = nodes
        fast.cache.validate()
        a, b = pulls
        assert (a.hits, a.misses, a.created) == (b.hits, b.misses, b.created)
        assert np.array_equal(a.weights, b.weights)
        snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
        assert set(snap_fast) == set(snap_ref)
        for key in snap_ref:
            assert np.array_equal(snap_fast[key], snap_ref[key]), f"key {key}"
        assert metrics_tuple(fast) == metrics_tuple(ref)
        assert fast.cache.cached_keys() == ref.cache.cached_keys()
        assert store_dump(fast) == store_dump(ref)
        assert fast.coordinator.last_completed == ref.coordinator.last_completed
        assert fast.coordinator.queue.pending() == ref.coordinator.queue.pending()
        for entry in ref.cache.index.entries():
            twin = fast.cache.index.find(entry.key)
            assert (twin.version, twin.updated, twin.dirty, twin.location) == (
                entry.version, entry.updated, entry.dirty, entry.location
            ), f"key {entry.key}"
            assert twin.referenced == entry.referenced, f"key {entry.key}"
        return rounds[0]

    def test_row_loaded_and_evicted_in_the_same_round(self):
        """More distinct misses than the cache holds: most rows arrive
        in one segment and leave in the next, and never see the arena.
        (0 is touched in every segment, so it never leaves.)"""
        nodes = self.pair(2)
        self.round(nodes, [0, 1, 2, 3, 4, 5], 0)
        for node in nodes:
            node.cache.drop_cache()
        result = self.round(nodes, [0, 1, 2, 0, 3, 4, 0, 5], 1)
        assert result.loads == 7 and result.evictions == 5
        self.round(nodes, [5, 0, 3], 2)

    def test_resident_row_evicted_and_reloaded_in_the_same_round(self):
        """12 is resident when the round starts (a hit for the pull), is
        evicted to make room for 10 and comes back later in the same
        round: its load must read what its eviction just wrote."""
        nodes = self.pair(2)
        self.round(nodes, [10, 11], 0)
        self.round(nodes, [12, 13], 1)  # 10, 11 now in PMem; LRU: 13, 12
        assert nodes[0].cache.cached_keys() == [13, 12]
        # 10 evicts 12, 11 evicts 13, 12's own access reloads it (evicting 10).
        result = self.round(nodes, [10, 11, 12], 2)
        assert (result.loads, result.evictions) == (3, 3)
        assert nodes[0].cache.cached_keys() == [12, 11]
        self.round(nodes, [12, 10, 12], 3)

    @pytest.mark.parametrize("track_dirty", (False, True))
    def test_flush_before_advance_then_eviction_of_the_same_entry(
        self, track_dirty
    ):
        """Under a pending checkpoint the accessed entry is flushed at
        its old version, advanced, then evicted by the next key — a
        second flush of the same row (unless dirty tracking skips it),
        with the checkpoint completing in between."""
        nodes = self.pair(1, track_dirty=track_dirty)
        self.round(nodes, [1], 0)
        for node in nodes:
            node.coordinator.request(0)
        result = self.round(nodes, [1, 2], 1)
        assert result.checkpoints_completed == 1
        assert result.flushes == (1 if track_dirty else 2)
        self.round(nodes, [1], 2)

    def test_checkpoints_completing_mid_round(self):
        """Two queued checkpoints and read-advanced rows (their state is
        older than their version); the round's evictions flush rows
        owed to either, and both complete once it has moved its rows."""
        nodes = self.pair(3)
        self.round(nodes, [0, 1, 2], 0)
        self.round(nodes, [0, 1, 2], 1, push=False)  # read-only: versions advance
        for node in nodes:
            node.coordinator.request(0)
        self.round(nodes, [2], 2)
        for node in nodes:
            node.coordinator.request(2)
        result = self.round(nodes, [3, 4, 5, 6, 0], 3)
        assert result.checkpoints_completed == 2
        for node in nodes:
            assert node.coordinator.last_completed == 2

    @pytest.mark.parametrize(
        "policy", (EvictionPolicy.LRU, EvictionPolicy.CLOCK, EvictionPolicy.FIFO)
    )
    @pytest.mark.parametrize("track_dirty", (False, True))
    def test_seeded_schedules_under_every_policy(self, policy, track_dirty):
        nodes = self.pair(3, policy=policy, track_dirty=track_dirty)
        rng = np.random.default_rng(17)
        for batch_id in range(40):
            keys = rng.integers(0, 12, size=int(rng.integers(1, 9))).tolist()
            self.round(nodes, keys, batch_id, push=bool(rng.integers(0, 4)))
            if rng.integers(0, 3) == 0:
                for node in nodes:
                    if batch_id > node.coordinator.last_completed and (
                        not node.coordinator.queue.pending()
                        or node.coordinator.queue.pending()[-1] < batch_id
                    ):
                        node.coordinator.request(batch_id)
        assert nodes[0].metrics.checkpoints_completed > 0
        assert nodes[0].metrics.cache.evictions > 20

    def test_admission_filter_keeps_cold_rows_out_of_the_plan(self):
        nodes = self.pair(2, admission_threshold=2)
        self.round(nodes, [0, 1, 2, 3], 0)
        for node in nodes:
            node.cache.drop_cache()
            node.coordinator.request(0)
        result = self.round(nodes, [0, 1, 0, 2, 3, 0, 1], 1)
        assert 0 < result.loads < 7
        self.round(nodes, [3, 3, 2, 0], 2)

    def test_arena_grows_while_the_round_lands(self):
        """600 rows arrive in one round (the arena holds 256) while 40
        resident rows are flushed under a pending checkpoint: the gather
        runs before the growth replaces the arena's matrix."""
        nodes = self.pair(700)
        resident = list(range(2000, 2040))
        batch_id = 0
        for lo in (0, 200, 400):
            self.round(nodes, list(range(lo, lo + 200)), batch_id)
            for node in nodes:
                node.cache.drop_cache()
            batch_id += 1
        self.round(nodes, resident, batch_id)
        rows_at_start = nodes[0].cache.arena.capacity
        assert rows_at_start < 600
        for node in nodes:
            node.coordinator.request(batch_id)
        result = self.round(nodes, resident + list(range(600)), batch_id + 1)
        assert result.loads == 600 and result.flushes == 40
        assert nodes[0].cache.arena.capacity > rows_at_start


SPARSE_KEYS = [0, 1, 2**64 - 1, 2**63, 2**32] + [
    (0x9E3779B97F4A7C15 * i) % 2**64 for i in range(3, 12)
]
"""14 keys spread over the whole ``uint64`` range, both ends included."""


def planner_schedule():
    """Rounds of 1-3 pulls (key indices, duplicates allowed), a push
    flag, and what happens after the round."""
    pull = st.lists(st.integers(0, len(SPARSE_KEYS) - 1), min_size=1, max_size=8)
    after = st.sampled_from(
        ("nothing", "nothing", "request", "barrier", "drop_cache", "migrate")
    )
    round_ = st.tuples(st.lists(pull, min_size=1, max_size=3), st.booleans(), after)
    return st.lists(round_, min_size=2, max_size=8)


class TestColumnarPlanner:
    """The columnar cache against the per-key oracle, wider than the
    seeded hazards above: sparse 64-bit keys, several pulls a round,
    rounds both shorter and longer than the cache (so a round is planned
    in segments, and rows are evicted and reloaded inside it), every
    policy, dirty tracking, the admission filter, checkpoints requested
    and forced, ``drop_cache``, keys migrated out and back in."""

    @staticmethod
    def act(node: PSNode, action: str, batch_id: int) -> None:
        coordinator = node.coordinator
        pending = coordinator.queue.pending()
        fresh = batch_id > coordinator.last_completed and (
            not pending or pending[-1] < batch_id
        )
        if action == "request" and fresh:
            coordinator.request(batch_id)
        elif action == "barrier" and fresh and node.latest_completed_batch >= 0:
            node.barrier_checkpoint(batch_id)
        elif action == "drop_cache":
            node.cache.drop_cache()
        elif action == "migrate":
            # Quiesce at a checkpoint of the round (every row durable),
            # then out through the durable versions and back in: every
            # other key comes back PMem-resident, adopted at its newest
            # version.
            if fresh:
                coordinator.request(batch_id)
            node.complete_pending_checkpoints()
            keys = sorted(node.owned_keys())[::2]
            block = node.export_entries(keys)
            assert node.drop_keys(keys) == len(keys)
            assert node.ingest_entries(block) == len(keys)

    @given(
        schedule=planner_schedule(),
        capacity=st.integers(1, 6),
        policy=st.sampled_from(list(EvictionPolicy)),
        track_dirty=st.booleans(),
        admission=st.sampled_from((0, 0, 1, 2)),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_observable_matches_the_oracle(
        self, schedule, capacity, policy, track_dirty, admission
    ):
        nodes = TestMaintainPlanHazards().pair(
            capacity,
            policy=policy,
            track_dirty=track_dirty,
            admission_threshold=admission,
        )
        for batch_id, (pulls, push, after) in enumerate(schedule):
            first, *more = ([SPARSE_KEYS[i] for i in pull] for pull in pulls)
            TestMaintainPlanHazards.round(nodes, first, batch_id, push=push, more=more)
            for node in nodes:
                self.act(node, after, batch_id)
            fast, ref = nodes
            fast.cache.validate()
            assert fast.cache.cached_keys() == ref.cache.cached_keys()
            assert store_dump(fast) == store_dump(ref)
            assert metrics_tuple(fast) == metrics_tuple(ref)
            assert fast.coordinator.last_completed == ref.coordinator.last_completed


class TestLRULicence:
    """Under LRU the round that evicts only rows it does not touch is the
    per-access loop (``install_reference_cache(per_access=True)``) minus
    its evict→reload pairs. Every touch restamps, so by LRU stack
    inclusion the loop's untouched victims are the oldest rows and each
    row it evicts and then touches again comes back within the same
    ``capacity_entries`` accesses. Everything but those pairs must match:
    the resident set and its order, versions, post-push dirty bits, pull
    hits and misses, pulled weights and the durable state at every
    completed checkpoint; loads, evictions and flushes are lower by
    exactly the reloads (and the flushes their evictions cost)."""

    @given(
        schedule=planner_schedule(),
        capacity=st.integers(1, 6),
        track_dirty=st.booleans(),
        shrink=st.sampled_from((0, 0, 1, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_round_is_the_per_access_loop_without_its_reloads(
        self, schedule, capacity, track_dirty, shrink
    ):
        fast, ref = (
            make_node(True, capacity + shrink, PSAdagrad(lr=0.1), track_dirty=track_dirty),
            install_reference_cache(
                make_node(True, capacity + shrink, PSAdagrad(lr=0.1), track_dirty=track_dirty),
                per_access=True,
            ),
        )
        completed = -1
        for batch_id, (pulls, __, after) in enumerate(schedule):
            if batch_id == 1 and shrink:  # the list is over capacity now
                for node in (fast, ref):
                    node.cache.capacity_entries = capacity
            keys = []
            for pull in pulls:
                pull = [SPARSE_KEYS[i] for i in pull]
                a, b = fast.pull(pull, batch_id), ref.pull(pull, batch_id)
                assert (a.hits, a.misses, a.created) == (b.hits, b.misses, b.created)
                assert np.array_equal(a.weights, b.weights)
                keys += pull
            reloads, reload_flushes = ref.cache.reloads, ref.cache.reload_flushes
            a, b = fast.maintain(batch_id), ref.maintain(batch_id)
            reloads = ref.cache.reloads - reloads
            reload_flushes = ref.cache.reload_flushes - reload_flushes
            assert (a.processed, a.checkpoints_completed) == (b.processed, b.checkpoints_completed)
            assert (a.loads, a.evictions, a.flushes) == (
                b.loads - reloads, b.evictions - reloads, b.flushes - reload_flushes
            )
            grads = np.random.default_rng((batch_id, 9)).standard_normal((len(keys), DIM))
            for node in (fast, ref):
                node.push(keys, grads.astype(np.float32), batch_id)
            if after in ("request", "barrier"):
                for node in (fast, ref):
                    TestColumnarPlanner.act(node, after, batch_id)
            fast.cache.validate()
            ref.cache.validate()
            assert fast.cache.cached_keys() == ref.cache.cached_keys()
            for entry in ref.cache.index.entries():
                twin = fast.cache.index.find(entry.key)
                assert (twin.version, twin.updated, twin.dirty, twin.location) == (
                    entry.version, entry.updated, entry.dirty, entry.location
                ), f"key {entry.key}"
            snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
            assert all(np.array_equal(snap_fast[key], snap_ref[key]) for key in snap_ref)
            assert fast.coordinator.queue.pending() == ref.coordinator.queue.pending()
            assert fast.coordinator.last_completed == ref.coordinator.last_completed
            if fast.coordinator.last_completed > completed:
                completed = fast.coordinator.last_completed
                durable = [keyed(node).read_at_most(SPARSE_KEYS, completed) for node in (fast, ref)]
                (versions_fast, rows_fast), (versions_ref, rows_ref) = durable
                assert np.array_equal(versions_fast, versions_ref)
                assert np.array_equal(rows_fast, rows_ref)


class TestDecisionWalk:
    """Directed rounds for the victim choice: a segment evicts the listed
    rows it does not touch, oldest first (CLOCK sparing a referenced one
    once), after applying every access. Each round is compared with the
    per-key oracle (``round``); the span of the production round says how
    many candidates the choice examined and how many segments it planned."""

    pair = TestMaintainPlanHazards.pair
    round = staticmethod(TestMaintainPlanHazards.round)

    @staticmethod
    def traced(nodes):
        from repro.obs.tracer import Tracer

        nodes[0].cache.tracer = tracer = Tracer()
        return lambda: tracer.spans_named("cache.maintain")[-1].attrs

    def fill(self, nodes, count: int, batch_id: int = 0, first_key: int = 1000):
        """``count`` resident, listed keys; the first is the oldest."""
        keys = list(range(first_key, first_key + count))
        self.round(nodes, keys, batch_id)
        return keys

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_untouched_run_across_a_candidate_block_boundary(self, policy):
        """10 arrivals fetch candidates in blocks of 2 * 10 + 64 = 84. The
        80 oldest rows are touched, so the ten untouched rows that pay
        for the arrivals start in the first block and end in the second,
        under every policy (nothing untouched is referenced)."""
        nodes = self.pair(120, policy=policy)
        old = self.fill(nodes, 120)
        attrs = self.traced(nodes)
        result = self.round(nodes, old[:80] + list(range(10)), 1)
        assert attrs()["segments"] == 1 and attrs()["candidates"] == 10
        assert (result.evictions, result.loads) == (10, 0)
        assert set(nodes[0].cache.cached_keys()) == set(old[:80] + old[90:]) | set(range(10))
        self.round(nodes, old[85:95] + [3, 4], 2)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_reload_lands_inside_an_untouched_run(self, policy):
        """The oldest row is accessed in the middle of 16 arrivals. A
        per-access round would evict it for the first arrival and reload
        it; the segment keeps it, and the 16 untouched rows after it pay."""
        nodes = self.pair(40, policy=policy)
        old = self.fill(nodes, 40)
        attrs = self.traced(nodes)
        keys = list(range(8)) + [old[0]] + list(range(8, 16))
        result = self.round(nodes, keys, 1)
        assert (result.evictions, result.loads) == (16, 0)
        assert attrs()["candidates"] == 16
        assert old[0] in nodes[0].cache.cached_keys()
        assert old[16] not in nodes[0].cache.cached_keys()
        self.round(nodes, [old[0], old[20], 3], 2)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    @pytest.mark.parametrize("arrival_first", (False, True))
    def test_list_over_capacity_before_the_round(self, policy, arrival_first):
        """The list holds 6 more rows than the cache may (as after pushes
        ahead of their rows): the segment evicts them and one row per
        arrival, all untouched, and keeps the rows it touches."""
        nodes = self.pair(30, policy=policy)
        old = self.fill(nodes, 30)
        for node in nodes:
            node.cache.capacity_entries = 24
        keys = ([7] if arrival_first else []) + [old[2], 8, old[1], 9, old[2]]
        result = self.round(nodes, keys, 1)
        assert (result.evictions, result.loads) == (8 + arrival_first, 0)
        assert nodes[0].cache.cached_entries == 24
        assert {old[1], old[2]} <= set(nodes[0].cache.cached_keys())
        self.round(nodes, [old[0], old[29], 7], 2)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    @pytest.mark.parametrize("track_dirty", (False, True))
    def test_pending_barrier_passed_in_the_middle_of_a_run(self, policy, track_dirty):
        """Rows of batch 0, then rows of batch 1; a checkpoint of batch
        0 and one of batch 1 are pending when 14 arrivals evict
        across the boundary: victims of both batches leave flushed under
        their state's batch, nothing completes while the round is
        planned, and a batch-1 row touched late in the round is still
        due its flush-before-advance."""
        nodes = self.pair(20, policy=policy, track_dirty=track_dirty)
        first = self.fill(nodes, 10, batch_id=0)
        second = self.fill(nodes, 10, batch_id=1, first_key=2000)
        self.round(nodes, first[:4], 2, push=False)  # read-advanced: version past state
        for node in nodes:
            node.coordinator.request(0)
            node.coordinator.request(1)
        keys = list(range(7)) + [second[8]] + list(range(7, 14)) + [second[1], first[9]]
        result = self.round(nodes, keys, 3)
        assert result.checkpoints_completed >= 1 and result.evictions >= 14
        self.round(nodes, [first[0], second[9], 2], 4)
        for node in nodes:
            node.barrier_checkpoint(4)
        self.round(nodes, first[:3] + second[:3], 5)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_admission_refusals_inside_the_round(self, policy):
        """Cold keys seen once are turned away. The cold accesses of a
        segment ask the filter together, so a key accessed twice in one
        segment gets in; one turned away asks again in the next."""
        nodes = self.pair(6, policy=policy, admission_threshold=1)
        self.fill(nodes, 12)
        for node in nodes:
            node.cache.drop_cache()
        keys = [1000, 1001, 1000, 1002, 1003, 1001, 1004, 1000, 1005, 1006, 1004, 1007, 1003]
        result = self.round(nodes, keys, 1)
        assert 0 < result.loads < len(set(keys))
        self.round(nodes, keys[::-1], 2)
        self.round(nodes, [1, 2, 1000, 1004], 3)

    @pytest.mark.parametrize("policy", (EvictionPolicy.FIFO, EvictionPolicy.CLOCK))
    def test_a_checkpoint_pending_across_segments_completes_after_the_round(self, policy):
        """Four rows trained at batch 0 and read (no push) at batch 1, so
        their versions are past checkpoint 0 and their states are not
        durable. A round three times the cache's length evicts them in
        its first segments and reloads some of them in later ones: the
        plan completes nothing, the round completes checkpoint 0 once
        its rows have moved, and every read pinned to 0 is the trained
        row."""
        nodes = self.pair(4, policy=policy)
        trained = self.fill(nodes, 4)
        self.round(nodes, trained, 1, push=False)
        at_0 = {key: nodes[0].read_weights(key).copy() for key in trained}
        for node in nodes:
            node.coordinator.request(0)
        attrs = self.traced(nodes)
        keys = [trained[0], 1, 2, trained[1], 3, 4, 5, trained[2], 6, 7, trained[0], trained[3]]
        result = self.round(nodes, keys, 2)
        assert attrs()["segments"] == 3 and result.evictions >= 8
        assert result.checkpoints_completed == 1
        assert nodes[0].coordinator.last_completed == 0
        pinned = nodes[0].lookup(trained, 0)
        assert pinned.cold == 0
        for key, weights in zip(trained, pinned.weights):
            assert np.array_equal(weights, at_0[key]), f"key {key}"

    def test_clock_walks_into_the_segments_own_insertions(self):
        """Every untouched row is referenced, so CLOCK spares (requeues)
        them all and comes round to them again, unreferenced, in the
        order it spared them — never to the rows the segment listed."""
        nodes = self.pair(4, policy=EvictionPolicy.CLOCK)
        old = self.fill(nodes, 4)
        self.round(nodes, old, 1)  # all four referenced
        attrs = self.traced(nodes)
        result = self.round(nodes, [1, 2, 3], 2)
        assert attrs()["segments"] == 1 and attrs()["candidates"] == 4
        assert result.evictions == 3
        assert nodes[0].cache.cached_keys() == [old[3], 3, 2, 1]
        self.round(nodes, [1, old[3], 2, 3, 1], 3)  # all four referenced again
        result = self.round(nodes, [5, 6, old[3], 7, 5, 8], 4)
        # [5, 6, old[3], 7] evicts 1, 2, 3 as they come round; then 8
        # spares old[3] (touched in the segment before) and takes 6.
        assert (result.evictions, result.loads, attrs()["segments"]) == (4, 0, 2)
        self.round(nodes, [old[0], 1, 5, 6, 7, 8, 1], 5)


class TestNoPerKeyPython:
    """Structural guard: on a warm all-hit batch the cache layer executes
    (nearly) the same number of bytecode instructions for 4 096 keys as
    for 256 — no Python step per key or per entry is left on the
    resident path."""

    @staticmethod
    def opcodes(node: PSNode, keys: np.ndarray, batch_id: int) -> int:
        grads = np.ones((len(keys), DIM), dtype=np.float32)

        def one_step():
            node.cache.pull(keys, batch_id)
            node.cache.maintain(batch_id)
            node.cache.update(keys, grads, batch_id)

        return TestNoPerKeyPython.count(one_step, where=("/repro/core/",))

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_opcode_count_does_not_grow_with_the_batch(self, policy):
        node = make_node(
            arena=True, capacity_entries=10_000, optimizer=PSAdagrad(), policy=policy
        )
        rng = np.random.default_rng(1)
        universe = rng.integers(0, 2**63, 6_000).astype(np.uint64)
        step(node, rng, universe, 0)  # everything resident and listed
        small = self.opcodes(node, rng.choice(universe, 256), 1)
        large = self.opcodes(node, rng.choice(universe, 4096), 2)
        assert node.metrics.cache.misses == 0 and node.metrics.entries_created == 6_000
        # The index probe walks collision chains as a shrinking loop, and
        # 16x the keys meet a few longer chains: each costs one more
        # ~60-instruction pass per lookup. A single Python step per key
        # would add at least 3 840.
        assert small > 100 and large <= small + 1000, (small, large)


    @staticmethod
    def count(call, where=("/repro/core/", "/repro/pmem/")) -> int:
        """Bytecode instructions ``call()`` executes in ``where``."""
        import sys

        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if not any(part in frame.f_code.co_filename for part in where):
                return None
            frame.f_trace_opcodes = True
            if event == "opcode":
                count += 1
            return tracer

        sys.settrace(tracer)
        try:
            call()
        finally:
            sys.settrace(None)
        return count

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_a_round_of_cold_arrivals_is_counted_not_walked(self, policy):
        """4 096 PMem-resident keys arrive and evict 4 096 rows nothing
        in the round touches: one run, whatever its length — the walk,
        the moves and the store execute the instructions of 256."""
        node = make_node(
            arena=True, capacity_entries=9_000, optimizer=PSAdagrad(), policy=policy
        )
        rng = np.random.default_rng(2)
        universe = rng.choice(2**40, 18_000, replace=False).astype(np.uint64)
        cold, resident = universe[:9_000], universe[9_000:]
        step(node, rng, cold, 0)
        node.cache.drop_cache()
        step(node, rng, resident, 1)  # the cache is full of rows the rounds below never touch

        def round_of(keys, batch_id):
            node.cache.pull(keys, batch_id)
            return self.count(lambda: node.cache.maintain(batch_id))

        small = round_of(cold[:256], 2)
        large = round_of(cold[256 : 256 + 4096], 3)
        assert node.metrics.cache.evictions == 256 + 4096
        assert node.metrics.cache.loads == 256 + 4096
        node.cache.validate()
        # (A collision chain or a second block of candidates more is a
        # few dozen instructions; one step per row would be > 10 000.)
        assert small > 300 and large <= small + 600, (small, large)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_a_round_that_retouches_old_rows_is_not_walked(self, policy):
        """``sync_miss``'s shape: cold arrivals, then the oldest resident
        rows again — the rows a per-access round would evict for those
        arrivals and load back. 4 096 such accesses execute the
        instructions of 256, and none of the re-touched rows leaves."""
        node = make_node(
            arena=True, capacity_entries=9_000, optimizer=PSAdagrad(), policy=policy
        )
        rng = np.random.default_rng(4)
        universe = rng.choice(2**40, 18_000, replace=False).astype(np.uint64)
        cold, resident = universe[:9_000], universe[9_000:]
        step(node, rng, cold, 0)
        node.cache.drop_cache()
        step(node, rng, resident, 1)  # listed oldest first, in ``resident`` order

        def round_of(arrivals, again, batch_id):
            node.cache.pull(np.concatenate([arrivals, again]), batch_id)
            return self.count(lambda: node.cache.maintain(batch_id))

        # The small round evicts resident[128:256], the oldest rows it
        # does not touch; the large one re-touches the oldest rows left
        # that the small one did not touch.
        small = round_of(cold[:128], resident[:128], 2)
        large = round_of(cold[128:2176], resident[256:2304], 3)
        assert node.metrics.cache.evictions == node.metrics.cache.loads == 128 + 2048
        assert all(node.cache.index.find(int(key)).in_dram for key in resident[256:2304])
        node.cache.validate()
        assert small > 300 and large <= small + 600, (small, large)

    def test_lookup_opcode_count_does_not_grow_with_the_batch(self):
        """A snapshot read is one index probe, one chain walk and one
        slab gather, whatever the number of keys."""
        node = make_node(arena=True, capacity_entries=2_000, optimizer=PSAdagrad())
        rng = np.random.default_rng(3)
        universe = rng.choice(2**40, 8_000, replace=False).astype(np.uint64)
        step(node, rng, universe, 0)
        node.barrier_checkpoint(0)
        step(node, rng, universe[:3_000], 1)  # newer versions on top: the chain walk steps
        served = {}

        def lookup(keys):
            served[len(keys)] = node.lookup(keys)

        small = self.count(lambda: lookup(rng.choice(universe, 256)))
        large = self.count(lambda: lookup(rng.choice(universe, 4096)))
        assert served[4096].hits == 4096 and served[256].cold == 0
        assert small > 100 and large <= small + 400, (small, large)


class TestUpdateAdvanceHazards:
    """The async-shaped update: a push stamped *ahead* of the rows it
    touches, which is every delayed push of the asynchronous trainer.

    No maintenance round ran at the push's batch id, so ``update`` itself
    applies flush-before-advance, stamps the version and reorders — the
    production cache for the whole push at once, the oracle one key at a
    time. Each push here repeats keys (reorder follows ascending keys),
    mixes rows a pending checkpoint still needs with rows it does not,
    and carries a PMem-resident key the admission filter kept out of
    DRAM; list order, per-entry metadata, every durable version and the
    rows served afterwards must match.
    """

    @staticmethod
    def same(nodes):
        fast, ref = nodes
        fast.cache.validate()
        assert fast.cache.cached_keys() == ref.cache.cached_keys()
        for entry in ref.cache.index.entries():
            twin = fast.cache.index.find(entry.key)
            assert (
                twin.version, twin.updated, twin.dirty, twin.referenced, twin.location
            ) == (
                entry.version, entry.updated, entry.dirty, entry.referenced,
                entry.location,
            ), f"key {entry.key}"
        assert store_dump(fast) == store_dump(ref)
        assert metrics_tuple(fast) == metrics_tuple(ref)
        assert fast.coordinator.queue.pending() == ref.coordinator.queue.pending()
        snap_fast, snap_ref = fast.state_snapshot(), ref.state_snapshot()
        assert set(snap_fast) == set(snap_ref)
        for key in snap_ref:
            assert np.array_equal(snap_fast[key], snap_ref[key]), f"key {key}"

    @pytest.mark.parametrize(
        "policy", (EvictionPolicy.LRU, EvictionPolicy.CLOCK, EvictionPolicy.FIFO)
    )
    @pytest.mark.parametrize("track_dirty", (False, True))
    @pytest.mark.parametrize("checkpoint", (False, True))
    def test_push_ahead_of_the_maintained_versions(
        self, policy, track_dirty, checkpoint
    ):
        nodes = [
            make_node(
                arena=arena,
                capacity_entries=6,
                optimizer=PSAdagrad(lr=0.1),
                policy=policy,
                track_dirty=track_dirty,
                admission_threshold=1,
            )
            for arena in (True, False)
        ]
        served = []
        for node in nodes:
            rng = np.random.default_rng(21)
            step(node, rng, [0, 1, 2, 3, 9], 0)
            node.cache.drop_cache()
            # 0..3 are seen twice and admitted back; 9, seen once, stays
            # in PMem behind the filter.
            step(node, rng, [0, 1, 2, 3, 3, 2, 1, 0, 9], 1)
            step(node, rng, [4, 5], 2)
            assert sorted(node.cache.cached_keys()) == [0, 1, 2, 3, 4, 5]
            if checkpoint:
                # 0..3 (version 1) are flushed before they advance; 4 and
                # 5 (version 2) are past the barrier and are not.
                node.coordinator.request(1)
            flushes = node.metrics.cache.flushes
            keys = [4, 0, 9, 0, 2, 5, 4, 1]  # 3 is left behind at version 1
            grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
            assert node.push(keys, grads, 3) == 6
            assert node.metrics.cache.flushes - flushes == (3 if checkpoint else 0)
        self.same(nodes)
        fast = nodes[0]
        if policy == EvictionPolicy.LRU:  # ascending key order, MRU first
            assert fast.cache.cached_keys() == [5, 4, 2, 1, 0, 3]
        assert fast.cache.index.find(9).version == 0  # cold: its version stays behind
        assert all(fast.cache.index.find(key).dirty for key in (0, 1, 2, 4, 5))

        for node in nodes:
            rng = np.random.default_rng(22)
            # A maintained round that evicts in the order the push left,
            # then a second push ahead of it, now with 9 resident.
            served.append(step(node, rng, [6, 7, 9, 9, 3], 4))
            keys = [9, 3, 6, 9, 0]
            grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
            node.push(keys, grads, 6)
        self.same(nodes)
        assert np.array_equal(served[0].weights, served[1].weights)
        for node in nodes:
            node.barrier_checkpoint(6)
            served.append(node.pull(list(range(8)) + [9], 7))
        self.same(nodes)
        assert np.array_equal(served[2].weights, served[3].weights)
        assert fast.metrics.cache.evictions > 0
