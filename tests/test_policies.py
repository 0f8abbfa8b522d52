"""Eviction policies: CLOCK behaviour + checkpoint soundness for ALL
policies (Algorithm 2's victim test is one comparison under LRU only;
completion here is a predicate over every resident row, whatever the
policy — these tests pin that down)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, EvictionPolicy, ServerConfig
from repro.core.entry import Location
from repro.core.ps_node import PSNode
from repro.core.optimizers import PSSGD
from repro.core.recovery import recover_node
from repro.errors import RecoveryError

DIM = 2


def make_node(policy, capacity_entries=3, seed=17, **cache_options):
    return PSNode(
        0,
        ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=seed),
        CacheConfig(
            capacity_bytes=capacity_entries * DIM * 4, policy=policy, **cache_options
        ),
        PSSGD(lr=0.25),
    )


def cycle(node, keys, batch):
    node.pull(keys, batch)
    node.maintain(batch)
    node.push(keys, np.full((len(keys), DIM), 0.5, dtype=np.float32), batch)


class TestClock:
    def test_referenced_entry_survives_first_sweep(self):
        node = make_node(EvictionPolicy.CLOCK, capacity_entries=2)
        cycle(node, [1, 2], 0)  # fresh insertions start unreferenced
        cycle(node, [1], 1)  # re-access references 1
        cycle(node, [3], 2)  # overflow: unreferenced 2 is the victim
        assert node.cache.cached_entries == 2
        assert node.cache.index.location_of(1) == Location.DRAM
        assert node.cache.index.location_of(2) == Location.PMEM
        node.cache.validate()

    def test_second_chance_beats_fifo_on_reaccess(self):
        """A hot entry re-referenced every other batch stays cached under
        CLOCK, while FIFO (no second chance) evicts it in a batch that
        does not touch it. (No policy evicts a row its own round
        touches.)"""

        def run(policy):
            node = make_node(policy, capacity_entries=2)
            cycle(node, [1, 2], 0)
            for batch in range(1, 9):  # 1 is hot, the rest a scan
                cycle(node, [1, 100 + batch] if batch % 2 else [100 + batch], batch)
            return node.cache.index.location_of(1)

        assert run(EvictionPolicy.CLOCK) == Location.DRAM
        assert run(EvictionPolicy.FIFO) == Location.PMEM

    def test_sweep_terminates_when_all_referenced(self):
        node = make_node(EvictionPolicy.CLOCK, capacity_entries=2)
        cycle(node, [1, 2, 3], 0)  # all referenced, must still evict one
        assert node.cache.cached_entries == 2


class TestVictimChoice:
    """Each policy on a cache small enough to reason about: fill it,
    touch, overflow, and name the victim. ``cached_keys()`` is the
    replacement order, most recent first."""

    def test_lru_evicts_the_least_recently_touched(self):
        node = make_node(EvictionPolicy.LRU, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)
        assert node.cache.cached_keys() == [3, 2, 1]
        cycle(node, [1], 1)  # a touch makes 1 the newest ...
        assert node.cache.cached_keys() == [1, 3, 2]
        cycle(node, [4], 2)  # ... so the overflow takes 2
        assert node.cache.cached_keys() == [4, 1, 3]
        assert node.cache.index.location_of(2) == Location.PMEM
        # Untouched, 1 would have been the victim instead.
        node = make_node(EvictionPolicy.LRU, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)
        cycle(node, [4], 1)
        assert node.cache.cached_keys() == [4, 3, 2]

    def test_lru_orders_a_round_by_last_touch(self):
        node = make_node(EvictionPolicy.LRU, capacity_entries=4)
        cycle(node, [1, 2, 3, 4], 0)
        cycle(node, [2, 1, 2, 3, 1], 1)  # last touches: 2 at 2, 3 at 3, 1 at 4
        assert node.cache.cached_keys() == [1, 3, 2, 4]
        cycle(node, [5, 6], 2)
        assert node.cache.cached_keys() == [6, 5, 1, 3]

    def test_lru_victim_touched_later_in_the_round_is_kept(self):
        """1 is the oldest when 4 arrives, but its own access comes later
        in the round: the round evicts 2, the oldest row it does not
        touch, and 1 never leaves (a per-access loop would evict 1 for 4
        and reload it, evicting 2 — the same cache, one load and one
        eviction more)."""
        node = make_node(EvictionPolicy.LRU, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)
        node.pull([4, 1], 1)
        result = node.maintain(1)
        assert (result.loads, result.evictions) == (0, 1)
        assert node.cache.cached_keys() == [1, 4, 3]

    def test_fifo_ignores_touches(self):
        node = make_node(EvictionPolicy.FIFO, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)
        cycle(node, [1, 1, 2], 1)  # no reorder
        assert node.cache.cached_keys() == [3, 2, 1]
        cycle(node, [4], 2)  # first in, first out
        assert node.cache.cached_keys() == [4, 3, 2]
        cycle(node, [1], 3)  # back in, as the newest
        assert node.cache.cached_keys() == [1, 4, 3]

    def test_clock_second_chance_is_spent_once(self):
        node = make_node(EvictionPolicy.CLOCK, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)
        cycle(node, [1], 1)  # sets 1's bit; the order does not move
        assert node.cache.cached_keys() == [3, 2, 1]
        assert node.cache.index.find(1).referenced
        cycle(node, [4], 2)  # the sweep spares 1 (bit cleared, requeued), takes 2
        assert node.cache.cached_keys() == [1, 4, 3]
        assert not node.cache.index.find(1).referenced
        cycle(node, [5, 6], 3)  # nobody is referenced: plain FIFO order
        assert node.cache.cached_keys() == [6, 5, 1]
        cycle(node, [7], 4)  # 1's chance is spent
        assert node.cache.cached_keys() == [7, 6, 5]
        node.cache.validate()


class TestARoundStaysResident:
    """Algorithm 2's write lock exists so that a batch's rows are resident
    for its update. A round evicts only rows it does not touch, so under
    every policy a round whose distinct keys fit the cache leaves each
    of them in DRAM (with an admission filter: each it admitted), and
    the serial pull -> maintain -> push never takes ``update``'s
    read-modify-write through PMem."""

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_key_of_a_round_that_fits_is_resident(self, policy, data):
        capacity = data.draw(st.integers(1, 5))
        admission = data.draw(st.sampled_from((0, 0, 1)))
        node = make_node(policy, capacity, admission_threshold=admission)
        for batch in range(data.draw(st.integers(2, 10))):
            distinct = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=capacity, unique=True))
            keys = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=3 * capacity))
            index = node.cache.index
            missed = {key for key in keys if index.find(key) and not index.find(key).in_dram}
            node.pull(keys, batch)
            bypassed = node.cache.admission.bypassed if admission else 0
            node.maintain(batch)
            out = {key for key in keys if not index.find(key).in_dram}
            if admission:
                assert out <= missed
                assert len(out) <= node.cache.admission.bypassed - bypassed
            else:
                assert not out, (sorted(out), keys)
            flushed = node.metrics.pmem_flush_entries
            node.push(keys, np.full((len(keys), DIM), 0.5, dtype=np.float32), batch)
            assert node.metrics.pmem_flush_entries - flushed == len(out)
            if data.draw(st.booleans()):
                node.request_checkpoint(batch)
            node.cache.validate()


class TestPolicySemantics:
    @pytest.mark.parametrize(
        "policy", [EvictionPolicy.LRU, EvictionPolicy.FIFO, EvictionPolicy.CLOCK]
    )
    def test_all_policies_train_identical_weights(self, policy):
        reference = make_node(EvictionPolicy.LRU, capacity_entries=100)
        node = make_node(policy)
        rng = np.random.default_rng(1)
        for batch in range(12):
            keys = sorted(rng.choice(15, size=4, replace=False).tolist())
            for n in (reference, node):
                cycle(n, keys, batch)
        a, b = reference.state_snapshot(), node.state_snapshot()
        for key in a:
            assert np.array_equal(a[key], b[key])


class TestCheckpointSoundnessAllPolicies:
    """The regression net for the FIFO/CLOCK completion subtlety: a
    re-accessed tail can carry a high version while a middle entry still
    holds pre-checkpoint state; completion must wait until no resident
    entry owes the checkpoint."""

    def test_fifo_does_not_complete_prematurely(self):
        node = make_node(EvictionPolicy.FIFO, capacity_entries=3)
        cycle(node, [1, 2, 3], 0)  # insertion order: 3, 2, 1 (tail=1)
        node.coordinator.request(0)
        state_at_0 = node.state_snapshot()
        # Re-access the tail (1) so ITS version advances past cp while
        # 2 and 3 keep version 0 and dirty batch-0 state, then force an
        # eviction of the (high-version) tail.
        cycle(node, [1], 1)
        cycle(node, [4], 2)  # overflow -> victim is key 1, version 2 > cp
        if node.coordinator.last_completed == 0:
            # Completion is only legal if every batch-0 state is durable.
            pool = node.crash()
            recovered, __ = recover_node(
                pool, node.server_config, node.cache_config, PSSGD(lr=0.25)
            )
            got = recovered.state_snapshot()
            for key in (1, 2, 3):
                assert np.array_equal(got[key], state_at_0[key]), key

    @pytest.mark.parametrize(
        "policy", [EvictionPolicy.LRU, EvictionPolicy.FIFO, EvictionPolicy.CLOCK]
    )
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_recovery_exact_for_any_policy(self, policy, data):
        schedule = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                    st.booleans(),
                ),
                min_size=2,
                max_size=12,
            )
        )
        node = make_node(policy, capacity_entries=data.draw(st.integers(1, 5)))
        reference: dict[int, np.ndarray] = {}
        snapshots: dict[int, dict[int, np.ndarray]] = {}
        for batch, (keys, want_ckpt) in enumerate(schedule):
            node.pull(keys, batch)
            node.maintain(batch)
            grads = np.full((len(keys), DIM), 0.5, dtype=np.float32)
            node.push(keys, grads, batch)
            for key in keys:
                if key not in reference:
                    rng = np.random.default_rng((17, key))
                    reference[key] = rng.uniform(-0.01, 0.01, DIM).astype(np.float32)
                reference[key] = reference[key] - np.float32(0.25) * grads[0]
            pending = node.coordinator.queue.pending()
            if (
                want_ckpt
                and batch > node.coordinator.last_completed
                and (not pending or pending[-1] < batch)
            ):
                node.coordinator.request(batch)
                snapshots[batch] = {
                    k: np.array(v, copy=True) for k, v in reference.items()
                }
        pool = node.crash()
        durable = pool.root.get("checkpointed_batch_id", -1)
        if durable < 0:
            with pytest.raises(RecoveryError):
                recover_node(
                    pool, node.server_config, node.cache_config, PSSGD(lr=0.25)
                )
            return
        recovered, report = recover_node(
            pool, node.server_config, node.cache_config, PSSGD(lr=0.25)
        )
        expected = snapshots[durable]
        got = recovered.state_snapshot()
        assert set(got) == set(expected)
        for key, weights in expected.items():
            assert np.array_equal(got[key], weights), (policy, key)
