"""Hierarchical serving tier: cache, staleness bound, replica fan-out.

Unit coverage for the online inference extension:

* the read role a serving backend satisfies, and its checker;
* :class:`~repro.core.serving_backend.ReplicaSelector` round-robin fan-out;
* :class:`~repro.dlrm.hps.HierarchicalPS` — hot-row cache hits,
  snapshot-window invalidation at every ``staleness_bound_k``, pinned
  reads bypassing the cache, frequency-gated admission;
* the role-split backend protocols (``ReadBackend`` / ``TrainBackend``);
* checkpoint-pinned model export and
  :meth:`~repro.dlrm.serving.InferenceSession.from_backend`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import pathlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.backend import ReadBackend, TrainBackend, check_backend
from repro.core.serving_backend import LookupResult, ReplicaSelector
from repro.core.server import OpenEmbeddingServer
from repro.core.sharding import mix64
from repro.dlrm import hps
from repro.dlrm.hps import WAYS, HierarchicalPS, ServingStats
from repro.errors import CheckpointError, ServerError
from repro.network.frontend import RemotePSClient
from tests.test_aggregators import _SortCountingNumpy as _AggregatorSortCounting

DIM = 8


def home(key: int, sets: int) -> int:
    """The set a key is cached in (the tier's own placement)."""
    return mix64(key) % sets


def make_server(num_nodes: int = 2, seed: int = 3) -> OpenEmbeddingServer:
    return OpenEmbeddingServer(
        ServerConfig(
            num_nodes=num_nodes,
            embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22,
            seed=seed,
        ),
        CacheConfig(capacity_bytes=1 << 18),
    )


def train_batch(server, keys, batch_id, scale=0.01):
    server.pull(keys, batch_id)
    server.maintain(batch_id)
    grads = np.full((len(keys), DIM), scale, dtype=np.float32)
    server.push(keys, grads, batch_id)


def trained_server(batches: int = 1, keys=range(16)) -> OpenEmbeddingServer:
    server = make_server()
    keys = list(keys)
    for batch in range(batches):
        train_batch(server, keys, batch)
    server.barrier_checkpoint()
    return server


# ----------------------------------------------------------------------
# protocols
# ----------------------------------------------------------------------


class TestServingProtocol:
    def test_server_is_serving_backend(self):
        server = make_server()
        assert isinstance(server, ReadBackend)
        assert check_backend(server, role="read") is server

    def test_checker_names_missing_members(self):
        class NotServing:
            pass

        with pytest.raises(TypeError, match="lookup"):
            check_backend(NotServing(), role="read")

    def test_role_split(self):
        server = make_server()
        assert isinstance(server, ReadBackend)
        assert isinstance(server, TrainBackend)
        assert check_backend(server, role="read") is server
        assert check_backend(server, role="train") is server

    def test_read_only_object_fails_train_role(self):
        class ReadOnly:
            def pull(self, keys, batch_id): ...
            def lookup(self, keys, snapshot_id=None): ...
            num_entries = 0
            latest_completed_batch = -1
            latest_serving_snapshot = -1
            checkpoints_completed = 0

        check_backend(ReadOnly(), role="read")
        with pytest.raises(TypeError, match="push"):
            check_backend(ReadOnly(), role="train")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown backend role"):
            check_backend(make_server(), role="serve")


class TestReplicaSelector:
    def test_round_robin_alternates_per_node(self):
        selector = ReplicaSelector()
        assert [selector.pick(0, 2) for __ in range(4)] == [0, 1, 0, 1]
        # Each node keeps its own turn counter.
        assert selector.pick(1, 2) == 0

    def test_unreplicated_shard_counts_one(self):
        server = make_server()
        assert ReplicaSelector.replica_count(server.nodes[0]) == 1


# ----------------------------------------------------------------------
# backend lookup semantics
# ----------------------------------------------------------------------


class TestBackendLookup:
    def test_lookup_requires_a_completed_checkpoint(self):
        server = make_server()
        train_batch(server, [1, 2], 0)
        with pytest.raises(CheckpointError, match="not a completed checkpoint"):
            server.lookup([1, 2])

    def test_future_pin_rejected(self):
        server = trained_server()
        with pytest.raises(CheckpointError):
            server.lookup([1], snapshot_id=99)

    def test_cold_key_serves_deterministic_init(self):
        server = trained_server()
        result = server.lookup([123456])
        assert result.cold == 1
        cfg = server.server_config
        rng = np.random.default_rng((cfg.seed, 123456))
        expected = rng.uniform(
            -cfg.initializer_scale, cfg.initializer_scale, DIM
        ).astype(np.float32)
        assert np.array_equal(result.weights[0], expected)

    def test_pinned_read_ignores_later_training(self):
        server = trained_server(keys=range(8))
        frozen = server.lookup(list(range(8)), 0)
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        still = server.lookup(list(range(8)), 0)
        assert np.array_equal(frozen.weights, still.weights)
        fresh = server.lookup(list(range(8)))
        assert fresh.snapshot_id == 1
        assert not np.array_equal(fresh.weights, frozen.weights)


# ----------------------------------------------------------------------
# the hierarchical tier
# ----------------------------------------------------------------------


class TestHierarchicalPS:
    def test_cache_hits_serve_identical_rows(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=32)
        first = tier.lookup([1, 2, 3])
        second = tier.lookup([1, 2, 3])
        assert np.array_equal(first.weights, second.weights)
        assert tier.stats.cache_hits == 3
        assert tier.stats.remote_rows == 3

    def test_capacity_zero_disables_caching(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=0)
        tier.lookup([1, 2])
        tier.lookup([1, 2])
        assert tier.stats.cache_hits == 0
        assert tier.stats.remote_rows == 4

    def test_capacity_zero_is_the_backends_pinned_lookup(self):
        """No cache, no tier: the lookup is the backend's at the pin the
        refresh read, bit for bit, and every row counts as remote."""
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=0)
        keys = [3, 5, 3, 99]  # a repeat and a key no batch trained
        result = tier.lookup(keys)
        pinned = server.lookup(keys, server.latest_serving_snapshot)
        assert result.weights.tobytes() == pinned.weights.tobytes()
        assert (result.snapshot_id, result.hits, result.cold) == (
            pinned.snapshot_id, pinned.hits, pinned.cold,
        ) == (0, 3, 1)
        assert result.row_snapshots.tolist() == [0] * len(keys)
        assert tier.stats == ServingStats(
            requests=1, rows=4, remote_rows=4, cold_rows=1, refreshes=1
        )
        assert tier.cached_rows == 0

    def test_an_empty_first_lookup_has_the_row_width(self):
        """Regression: before its first fetch the tier answered
        ``lookup([])`` with weights of shape ``(0, 0)``; the backend
        answers ``(0, dim)``."""
        server = trained_server()
        result = HierarchicalPS(server, capacity_rows=16).lookup([])
        assert result.weights.shape == server.lookup([]).weights.shape == (0, DIM)
        assert result.row_snapshots.shape == (0,) and result.hits == result.cold == 0

    def test_lru_eviction_respects_capacity(self):
        """Per set: each set keeps at most ``WAYS`` rows, whatever lands
        in the others; capacity 10 rounds up to two sets of eight."""
        tier = HierarchicalPS(trained_server(), capacity_rows=10)
        assert tier.capacity_rows == 2 * WAYS
        keys = list(range(40))
        tier.lookup(keys)
        per_set = np.bincount([home(key, 2) for key in keys], minlength=2)
        assert per_set.max() > WAYS  # the request overflows a set
        assert tier.cached_rows == np.minimum(per_set, WAYS).sum() <= tier.capacity_rows
        assert tier.stats.evicted == 0  # the block went in without displacing itself

    def test_one_set_of_ways_when_capacity_is_at_most_the_ways(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=2)
        assert tier.capacity_rows == 2
        tier.lookup([1, 2, 3])
        assert tier.cached_rows == 2

    def test_k0_forces_current_rows(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32, staleness_bound_k=0)
        stale = tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        fresh = tier.lookup([1])
        assert stale.row_snapshots[0] == 0
        assert fresh.row_snapshots[0] == 1
        assert not np.array_equal(stale.weights, fresh.weights)
        assert tier.stats.invalidated == 1

    def test_k1_serves_one_checkpoint_behind(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32, staleness_bound_k=1)
        old = tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        lagging = tier.lookup([1])
        # Within the bound: the cached row (pinned at checkpoint 0) may
        # still serve while the newest checkpoint is 1.
        assert lagging.row_snapshots[0] == 0
        assert np.array_equal(old.weights, lagging.weights)
        # One more advance pushes it past the bound.
        train_batch(server, list(range(8)), 2, scale=0.5)
        server.barrier_checkpoint()
        current = tier.lookup([1])
        assert current.row_snapshots[0] == 2

    def test_explicit_pin_bypasses_cache(self):
        server = trained_server(keys=range(8))
        tier = HierarchicalPS(server, capacity_rows=32)
        tier.lookup([1])
        train_batch(server, list(range(8)), 1, scale=0.5)
        server.barrier_checkpoint()
        pinned = tier.lookup([1], snapshot_id=0)
        assert pinned.snapshot_id == 0
        assert tier.stats.rows == 1  # the pinned read is not counted as cached traffic

    def test_freq_admission_waits_for_second_touch(self):
        tier = HierarchicalPS(
            trained_server(), capacity_rows=32, freq_admission=True
        )
        tier.lookup([7])
        assert tier.cached_rows == 0
        tier.lookup([7])
        assert tier.cached_rows == 1

    def test_invalidate_drops_everything(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=32)
        tier.lookup([1, 2, 3])
        assert tier.invalidate() == 3
        assert tier.cached_rows == 0

    def test_rejects_train_only_backend(self):
        class TrainOnly:
            def pull(self, keys, batch_id): ...

        with pytest.raises(TypeError, match="lookup"):
            HierarchicalPS(TrainOnly())

    def test_registry_counters_published(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        tier = HierarchicalPS(
            trained_server(), capacity_rows=32, registry=registry
        )
        tier.lookup([1, 2])
        tier.lookup([1, 2])
        assert registry.counter("repro_serving_requests_total").value == 2
        assert registry.counter("repro_serving_cache_hits_total").value == 2
        # One set of two ways: a third key displaces the older live row.
        tier = HierarchicalPS(trained_server(), capacity_rows=2, registry=registry)
        tier.lookup([1, 2])
        tier.lookup([3])
        assert registry.counter("repro_serving_evicted_total").value == 1
        assert tier.invalidate() == 2
        assert registry.counter("repro_serving_invalidated_total").value == 2

    def test_bundle_hoists_serving_counters(self):
        from repro.obs.registry import MetricsRegistry, collect_bundle

        server = trained_server()
        server.lookup([1, 2, 3])
        registry = MetricsRegistry()
        for i, node in enumerate(server.nodes):
            collect_bundle(registry, node.metrics, {"node": str(i)})
        total = sum(
            metric.value
            for name, __, metric in registry.items()
            if name == "repro_serving_rows_total"
        )
        assert total == 3


def advance(server, batch_id: int) -> None:
    """Train one batch and complete its checkpoint."""
    train_batch(server, list(range(8)), batch_id)
    server.barrier_checkpoint()


class LRUModel:
    """The tier's cache before it was set-associative — one ``OrderedDict``
    in least-recently-used order, probed and admitted one key at a time —
    kept as the oracle for a tier of one set."""

    def __init__(self, backend, capacity: int, staleness_bound_k: int):
        self.backend = backend
        self.capacity = capacity
        self.k = staleness_bound_k
        #: key -> (weights, Checkpointed Batch ID, checkpoints completed at admission)
        self.rows: OrderedDict[int, tuple] = OrderedDict()
        self.hits = self.invalidated = 0

    def lookup(self, keys):
        count = self.backend.checkpoints_completed
        weights = np.empty((len(keys), DIM), dtype=np.float32)
        pins = np.empty(len(keys), dtype=np.int64)
        misses = []
        for i, key in enumerate(keys):
            row = self.rows.get(key)
            if row is not None and count - row[2] <= self.k:
                self.rows.move_to_end(key)
                weights[i], pins[i] = row[0], row[1]
                self.hits += 1
                continue
            if row is not None:
                del self.rows[key]
                self.invalidated += 1
            misses.append(i)
        if misses:
            miss_keys = [keys[i] for i in misses]
            fetched = self.backend.lookup(miss_keys, self.backend.latest_serving_snapshot)
            weights[misses], pins[misses] = fetched.weights, fetched.snapshot_id
            for j, key in enumerate(miss_keys):
                self.rows[key] = (fetched.weights[j], fetched.snapshot_id, count)
                self.rows.move_to_end(key)
                while len(self.rows) > self.capacity:
                    self.rows.popitem(last=False)
        return weights, pins

    def invalidate(self) -> int:
        dropped = len(self.rows)
        self.rows.clear()
        self.invalidated += dropped
        return dropped


class TestSetVictims:
    """Which way a miss replaces: the least recently used of its own set
    (the SNIPPETS 2–3 cache-simulator tests, for ``S`` sets of ``WAYS``)."""

    def test_a_colliding_key_evicts_its_sets_lru_way_and_no_other(self):
        tier = HierarchicalPS(trained_server(), capacity_rows=2 * WAYS)
        ours = [key for key in range(200) if home(key, 2) == 0][: WAYS + 1]
        theirs = [key for key in range(200) if home(key, 2) == 1][:WAYS]
        tier.lookup(theirs)  # set 1 full, and older than all of set 0
        tier.lookup(ours[:WAYS])  # set 0 full ...
        tier.lookup(ours[1:WAYS])  # ... with ours[0] its least recently used
        tier.lookup([ours[WAYS]])  # a ninth key for set 0
        assert tier.stats.evicted == 1
        hits = tier.stats.cache_hits
        tier.lookup(theirs + ours[1:])  # the globally oldest rows survive
        assert tier.stats.cache_hits - hits == 2 * WAYS
        tier.lookup([ours[0]])  # the victim
        assert tier.stats.cache_hits - hits == 2 * WAYS

    def test_a_stale_way_is_reused_before_any_live_way(self):
        server = trained_server()
        tier = HierarchicalPS(server, capacity_rows=2 * WAYS, staleness_bound_k=1)
        stale, *live = [key for key in range(200) if home(key, 2) == 0][:WAYS]
        tier.lookup([stale])  # admitted at checkpoint count c
        advance(server, 1)
        tier.lookup(live)  # admitted at c + 1: set 0 is full
        tier.lookup([stale])  # a hit: the set's most recently used way
        advance(server, 2)
        result = tier.lookup([stale])  # two completions behind: dropped, fetched
        assert tier.stats.invalidated == 1 and tier.stats.evicted == 0
        assert result.row_snapshots[0] == server.latest_serving_snapshot
        hits = tier.stats.cache_hits
        tier.lookup(live + [stale])
        assert tier.stats.cache_hits - hits == WAYS

    def test_a_dropped_rows_tag_never_shadows_a_live_row(self):
        """The tag match reads no valid bit: a dropped row keeps its tag,
        and a key's first tag match must be its live way. Admission fills
        empty ways in way order, so a left-over tag sits after its key's
        live row (were key 0 re-admitted to way 7, its dropped tag in
        way 0 would hide it)."""
        tier = HierarchicalPS(trained_server(), capacity_rows=WAYS)  # one set
        tier.lookup(range(WAYS))  # key i in way i
        tier.invalidate()
        tier.lookup([0])
        hits = tier.stats.cache_hits
        tier.lookup([0])
        assert tier.stats.cache_hits == hits + 1 and tier.cached_rows == 1

    @pytest.mark.parametrize("capacity", [1, 3, WAYS])
    @pytest.mark.parametrize("k", [0, 1])
    def test_one_set_is_the_per_key_lru(self, capacity, k):
        """``capacity_rows <= WAYS`` is one set: the same hits, rows, pins
        and occupancy as the per-key LRU, over lookups with repeated keys
        and more distinct misses than ways, checkpoints and invalidations."""
        server = trained_server(keys=range(24))
        tier = HierarchicalPS(server, capacity_rows=capacity, staleness_bound_k=k)
        model = LRUModel(server, capacity, k)
        rng = np.random.default_rng(10 * capacity + k)
        batch_id = 1
        for __ in range(150):
            op = rng.integers(10)
            if op == 0:
                advance(server, batch_id)
                batch_id += 1
            elif op == 1:
                assert tier.invalidate() == model.invalidate()
            else:
                keys = [int(key) for key in rng.integers(0, 24, rng.integers(1, 13))]
                result = tier.lookup(keys)
                weights, pins = model.lookup(keys)
                assert tier.stats.cache_hits == model.hits
                assert np.array_equal(result.weights, weights)
                assert np.array_equal(result.row_snapshots, pins)
                assert tier.cached_rows == len(model.rows)
        assert tier.stats.invalidated == model.invalidated
        assert batch_id > 5 and model.invalidated > 0


def serve_digests(lookups: int = 600, every: int = 100) -> list[str]:
    """What two tiers serve over a 2-shard :class:`RemotePSClient` while
    training writes beside them, as one running SHA-256 read every
    ``every`` lookups.

    Each lookup hashes its weights, its row snapshots, its pin, hits and
    cold rows and the :class:`ServingStats` it added. The lookups draw
    skewed keys with repeats, a third of them never trained (cold); a
    train step lands after every 10th and a barrier checkpoint after
    every 30th, so rows age past both tiers' bounds. One tier holds 64
    rows (8 sets) at ``k = 1``; the other 5 rows (one set) at ``k = 0``
    with second-touch admission.
    """
    client = RemotePSClient(
        ServerConfig(
            num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=7
        ),
        CacheConfig(capacity_bytes=1 << 16),
    )
    tiers = (
        HierarchicalPS(client, capacity_rows=64, staleness_bound_k=1),
        HierarchicalPS(
            client, capacity_rows=5, staleness_bound_k=0, freq_admission=True
        ),
    )
    rng = np.random.default_rng(45)
    train_batch(client, list(range(64)), 0)
    client.barrier_checkpoint()
    batch_id, digest, out = 1, hashlib.sha256(), []
    for n in range(lookups):
        if n % 10 == 9:
            train_batch(client, rng.integers(0, 96, 24).tolist(), batch_id)
            batch_id += 1
        if n % 30 == 29:
            client.barrier_checkpoint()
        tier = tiers[n % 2]
        keys = (rng.zipf(1.3, int(rng.integers(1, 48))) - 1) % 96
        before = dataclasses.astuple(tier.stats)
        result = tier.lookup(keys)
        added = np.subtract(dataclasses.astuple(tier.stats), before)
        digest.update(np.ascontiguousarray(result.weights, np.float32).tobytes())
        digest.update(np.asarray(result.row_snapshots, np.int64).tobytes())
        counts = [result.snapshot_id, result.hits, result.cold, *added]
        digest.update(np.array(counts, np.int64).tobytes())
        if (n + 1) % every == 0:
            out.append(digest.hexdigest())
    return out


GOLDEN_SERVING = pathlib.Path(__file__).parent / "golden_serving_lookups.json"


class TestServedBitsGolden:
    """``tests/golden_serving_lookups.json`` was recorded on the tree
    before the lookup path's fixed cost was cut (every layer: the tier,
    the routing, the codec, the RPC channel and the shard). Whatever makes
    a lookup cheaper must serve the same rows, pins and counters, lookup
    by lookup."""

    def test_served_lookups_match_the_recorded_digests(self):
        golden = json.loads(GOLDEN_SERVING.read_text())
        assert serve_digests(golden["lookups"], golden["every"]) == golden["digests"]


class TestServingLoadDriver:
    def test_a_run_reports_its_own_requests(self):
        """Regression: ``run`` reported the tier's lifetime hit rate and
        cold rows, so a measured run after a warm-up counted the
        warm-up's misses as its own."""
        from repro.simulation.clock import SimClock
        from repro.simulation.serving_sim import ServingCostModel, ServingLoadDriver

        class SameKeys:
            def sample_keys(self, n):
                return np.arange(1000, 1000 + n)  # never trained: cold

        tier = HierarchicalPS(trained_server(), capacity_rows=32)
        driver = ServingLoadDriver(
            tier, SameKeys(), ServingCostModel(), SimClock(), batch_keys=4
        )
        warm = driver.run(1)
        measured = driver.run(3)
        assert (warm.hit_rate, warm.cold_rows) == (0.0, 4)
        assert (measured.hit_rate, measured.cold_rows) == (1.0, 0)
        assert tier.stats.hit_rate == 12 / 16


class _SortCountingNumpy(_AggregatorSortCounting):
    """numpy as ``dlrm/hps.py`` sees it, counting its sorts."""

    SORTS = (*_AggregatorSortCounting.SORTS, "lexsort")


class TestSortBudget:
    """A lookup's admission is one sort of its misses (by set, then key,
    which dedups them) plus one ordering by age of the ways of the sets
    that draw a second key (a set's first key takes its oldest way, an
    ``argmin``); a set drawing more keys than it has ways adds the one
    re-sort that keeps its newest. ``np.unique`` (a sort and a relayout
    of its own) is gone. All-hit lookups sort nothing."""

    @pytest.fixture
    def counting(self, monkeypatch):
        counting = _SortCountingNumpy()
        monkeypatch.setattr(hps, "np", counting)
        return counting

    @staticmethod
    def sorts(counting, tier, keys) -> int:
        before = sum(counting.calls.values())
        tier.lookup(keys)
        return sum(counting.calls.values()) - before

    def test_a_lookup_with_misses_sorts_twice(self, counting):
        tier = HierarchicalPS(trained_server(), capacity_rows=128 * WAYS)
        keys = np.random.default_rng(3).integers(0, 400, 208)  # repeats
        assert self.sorts(counting, tier, keys) == 2
        assert self.sorts(counting, tier, keys) == 0  # all hits
        assert counting.calls["unique"] == 0

    def test_a_crowded_set_adds_one_sort(self, counting):
        tier = HierarchicalPS(trained_server(), capacity_rows=WAYS)  # one set
        assert self.sorts(counting, tier, np.arange(3 * WAYS)) == 3
        assert tier.cached_rows == WAYS

    def test_no_unique_in_the_module(self):
        assert "unique" not in inspect.getsource(hps)


class TestNoPerKeyPython:
    """Structural guard: a warm all-hit lookup executes the same bytecode
    in ``dlrm/hps.py`` for 4 096 keys as for 208 — a fixed number of
    array operations, no Python step per key."""

    def test_opcode_count_does_not_grow_with_the_batch(self):
        from tests.test_hotpath_equivalence import TestNoPerKeyPython as guard

        tier = HierarchicalPS(trained_server(), capacity_rows=1 << 16)
        keys = np.random.default_rng(4).choice(2**40, 4096, replace=False)
        tier.lookup(keys)
        remote = tier.stats.remote_rows
        small = guard.count(lambda: tier.lookup(keys[:208]), where=("/repro/dlrm/hps.py",))
        large = guard.count(lambda: tier.lookup(keys), where=("/repro/dlrm/hps.py",))
        assert tier.stats.remote_rows == remote  # both all-hit
        assert small > 100 and large == small, (small, large)


# ----------------------------------------------------------------------
# checkpoint-pinned export / serving sessions
# ----------------------------------------------------------------------


class TestPinnedExport:
    def test_from_backend_serves_pinned_rows(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        server = trained_server(keys=range(12))
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        session = InferenceSession.from_backend(server, model)
        assert session.snapshot_id == 0
        assert session.num_entries == 12
        live = server.lookup([3])
        key_matrix = np.array([[3, 3, 3, 3]])
        assert np.array_equal(session.lookup(key_matrix)[0, 0], live.weights[0])

    def test_from_backend_requires_checkpoint(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        server = make_server()
        train_batch(server, [1, 2], 0)  # trained but never checkpointed
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        with pytest.raises(ServerError, match="checkpoint"):
            InferenceSession.from_backend(server, model)

    def test_from_backend_rejects_empty(self):
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession

        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        with pytest.raises(ServerError, match="no embedding entries"):
            InferenceSession.from_backend(make_server(), model)

    def test_export_is_checkpoint_pinned(self, tmp_path):
        """Exporting mid-training captures a barrier, not a torn mix."""
        from repro.dlrm.deepfm import DeepFM
        from repro.dlrm.serving import InferenceSession, export_model

        server = trained_server(keys=range(8))
        model = DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        session = InferenceSession(
            path, DeepFM(4, DIM, hidden=(8,), use_first_order=False, seed=0)
        )
        pinned = server.lookup(list(range(8)), server.latest_serving_snapshot)
        key_matrix = np.array([list(range(4)), list(range(4, 8))])
        assert np.array_equal(
            session.lookup(key_matrix).reshape(8, DIM), pinned.weights
        )
