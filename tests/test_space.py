"""VersionedEntryStore: retention barriers, recycling, recovery scan."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OutOfSpaceError, RecoveryError
from repro.pmem.pool import PmemPool
from repro.pmem.space import (
    NO_CHECKPOINT,
    NO_ENTRIES,
    NO_VERSION,
    EntryBlock,
    VersionedEntryStore,
    separated,
)
from tests.harness.keyed_store import KeyedStore


@pytest.fixture
def store():
    return KeyedStore(VersionedEntryStore(PmemPool(1 << 16), entry_bytes=16))


def w(v):
    return np.full(4, float(v), dtype=np.float32)


def put(store, key, version, row):
    """One row through the block API."""
    store.put([key], version, row[None, :])


def latest(store, key):
    versions, rows = store.read_latest([key])
    return int(versions[0]), rows[0]


def at_most(store, key, barrier):
    versions, rows = store.read_at_most([key], barrier)
    return int(versions[0]), rows[0]


class TestVersioning:
    def test_put_and_read_latest(self, store):
        put(store, 1, 5, w(5))
        batch, value = latest(store, 1)
        assert batch == 5
        assert value[0] == 5.0

    def test_latest_wins(self, store):
        put(store, 1, 5, w(5))
        put(store, 1, 9, w(9))
        batch, value = latest(store, 1)
        assert batch == 9
        assert value[0] == 9.0

    def test_without_barriers_only_newest_kept(self, store):
        put(store, 1, 5, w(5))
        put(store, 1, 9, w(9))
        assert store.versions_of(1) == [9]

    def test_read_at_most(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        batch, value = at_most(store, 1, 5)
        assert batch == 3
        assert value[0] == 3.0

    def test_read_at_most_no_eligible(self, store):
        put(store, 1, 9, w(9))
        versions, rows = store.read_at_most([1, 2], 5)
        assert versions.tolist() == [NO_VERSION, NO_VERSION]
        assert not rows.any()

    def test_missing_key(self, store):
        assert not store.has(1)
        with pytest.raises(KeyError):
            store.read_latest([1])


class TestRetention:
    def test_barrier_protects_old_version(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        assert store.versions_of(1) == [3, 9]

    def test_multiple_barriers(self, store):
        store.set_retention_barriers((4, 8))
        for batch in (2, 6, 10):
            put(store, 1, batch, w(batch))
        # newest <= 4 is 2; newest <= 8 is 6; newest overall is 10.
        assert store.versions_of(1) == [2, 6, 10]

    def test_recycle_after_barrier_moves(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        store.set_retention_barriers((9,))
        freed = store.recycle()
        assert freed == 1
        assert store.versions_of(1) == [9]

    def test_footprint_bounded_by_barriers(self, store):
        store.set_retention_barriers((50,))
        for batch in range(100):
            put(store, 1, batch, w(batch))
        assert len(store.versions_of(1)) <= 2

    def test_idempotent_put_same_version(self, store):
        put(store, 1, 5, w(5))
        put(store, 1, 5, w(6))
        assert store.versions_of(1) == [5]
        assert latest(store, 1)[1][0] == 6.0


_VERSIONS = st.integers(-1, 12)  # small, so pairs land on barriers and on each other


class TestBarrierSeparation:
    """``separated`` is the store's one test of whether a retention barrier
    lies between two versions; it decides what a put overwrites and what
    a prune keeps, so it must read exactly as the ``searchsorted`` pair
    it replaced."""

    @given(
        barriers=st.lists(st.integers(-1, 12), max_size=3, unique=True).map(sorted),
        pairs=st.lists(st.tuples(_VERSIONS, _VERSIONS), max_size=40),
    )
    @example(barriers=[], pairs=[(0, 5), (3, 3)])
    @example(barriers=[4], pairs=[(4, 4), (3, 4), (4, 5), (2, 9), (5, 4)])
    @example(barriers=[2, 6, 9], pairs=[(2, 6), (6, 6), (1, 2), (9, 9), (6, 9), (7, 8)])
    def test_equals_the_searchsorted_form(self, barriers, pairs):
        barriers = np.array(barriers, dtype=np.int64)
        older = np.array([pair[0] for pair in pairs], dtype=np.int64)
        newer = np.array([pair[1] for pair in pairs], dtype=np.int64)
        left, right = np.searchsorted(barriers, older), np.searchsorted(barriers, newer)
        got = separated(barriers, older, newer)
        # The prune's question, for any pair: is a barrier in [older, newer)?
        assert got.tolist() == (left < right).tolist()
        # The put's question, for a version at or above its head: same interval?
        ordered = older <= newer
        assert (~got)[ordered].tolist() == (left == right)[ordered].tolist()


class TestCheckpointId:
    def test_default_is_no_checkpoint(self, store):
        assert store.checkpointed_batch_id() == NO_CHECKPOINT

    def test_set_and_survive_crash(self, store):
        store.set_checkpointed_batch_id(7)
        store.pool.crash()
        assert store.checkpointed_batch_id() == 7


class TestRecovery:
    def test_rebuild_from_pool(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        put(store, 2, 4, w(4))
        fresh = KeyedStore(VersionedEntryStore(store.pool, entry_bytes=16))
        fresh.rebuild_from_pool()
        assert fresh.versions_of(1) == [3, 9]
        assert fresh.versions_of(2) == [4]

    def test_discard_newer_than(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        put(store, 2, 8, w(8))
        discarded = store.discard_newer_than(5)
        assert discarded == 2
        assert store.versions_of(1) == [3]
        assert not store.versions_of(2)  # created after the checkpoint

    def test_full_recover(self, store):
        store.set_retention_barriers((5,))
        put(store, 1, 3, w(3))
        put(store, 1, 9, w(9))
        store.set_checkpointed_batch_id(5)
        store.pool.crash()
        recovered = store.recover()
        assert recovered == {1: 3}
        assert latest(store, 1)[1][0] == 3.0

    def test_recover_without_checkpoint_fails(self, store):
        put(store, 1, 3, w(3))
        with pytest.raises(RecoveryError):
            store.recover()

    def test_uncommitted_slot_invisible_to_recovery(self, store):
        """A slab write commits by setting the slot's ``live`` bit last.
        A crash before that (in-flight IO: header and payload landed,
        the bit did not) leaves free space, not a version."""
        put(store, 1, 3, w(3))
        put(store, 2, 3, w(4))
        store.set_checkpointed_batch_id(3)
        slab = store.pool.slab(16)
        torn = np.flatnonzero(slab.live & (slab.key == 2))
        slab.live[torn] = False
        store.pool.crash()
        recovered = store.recover()
        assert recovered == {1: 3}


class TestHeadsInHeadsOut:
    """The production surface: the store owns no key map. A call takes
    the head (slot of the newest version, -1 for none) of every key it
    concerns, and the writing calls return the new heads."""

    @pytest.fixture
    def raw(self):
        return VersionedEntryStore(PmemPool(1 << 16), entry_bytes=16)

    @staticmethod
    def rows(*values):
        return np.repeat(np.array(values, dtype=np.float32)[:, None], 4, axis=1)

    @staticmethod
    def chain(store, head):
        """(version, first float) of every version under ``head``, oldest first."""
        slots = store._chains([head])[1][::-1]
        return list(zip(store.slab.batch[slots].tolist(), store.slab.data[slots, 0].tolist()))

    def test_put_returns_a_head_per_position(self, raw):
        heads = raw.put([7, 8, 9], [-1, -1, -1], 3, self.rows(1, 2, 3))
        assert len(set(heads.tolist())) == 3 and (heads >= 0).all()
        assert raw.slab.key[heads].tolist() == [7, 8, 9]
        versions, rows = raw.read_latest(heads)
        assert versions.tolist() == [3, 3, 3] and rows[:, 0].tolist() == [1.0, 2.0, 3.0]
        # No barrier protects version 3: the next put takes the slots over.
        again = raw.put([7, 8, 9], heads, 4, self.rows(4, 5, 6))
        assert again.tolist() == heads.tolist() and raw.total_versions() == 3
        assert raw.read_latest(again)[0].tolist() == [4, 4, 4]

    def test_repeated_key_threads_its_head_through_the_ranks(self, raw):
        """Key 5 three times in one block, with a barrier between each
        pair of versions: every occurrence opens a new slot on top of the
        one before, and all three positions report the final head."""
        raw.set_retention_barriers((1, 3))
        heads = raw.put([5, 6, 5, 5], [-1, -1, -1, -1], [0, 0, 2, 4], self.rows(10, 20, 12, 14))
        assert heads[0] == heads[2] == heads[3] != heads[1]
        assert self.chain(raw, heads[0]) == [(0, 10.0), (2, 12.0), (4, 14.0)]
        assert self.chain(raw, heads[1]) == [(0, 20.0)]
        # The same block again restates every version in place.
        slots_before = sorted(np.flatnonzero(raw.slab.live).tolist())
        again = raw.put([5, 6, 5, 5], heads, [0, 0, 2, 4], self.rows(11, 21, 13, 15))
        assert again.tolist() == heads.tolist()
        assert sorted(np.flatnonzero(raw.slab.live).tolist()) == slots_before
        assert self.chain(raw, heads[0]) == [(0, 11.0), (2, 13.0), (4, 15.0)]

    def test_row_below_its_keys_head_moves_no_head(self, raw):
        raw.set_retention_barriers((2,))
        (head,) = raw.put([5], [-1], 7, self.rows(7))
        (same,) = raw.put([5], [head], 2, self.rows(2))  # a version older than the head
        assert same == head
        assert self.chain(raw, head) == [(2, 2.0), (7, 7.0)]
        # Mixed block: key 6 is new, key 5 gets a row below and restates it.
        heads = raw.put([6, 5], [-1, head], [9, 2], self.rows(9, 3))
        assert heads[1] == head and heads[0] not in (-1, head)
        assert self.chain(raw, head) == [(2, 3.0), (7, 7.0)]

    def test_rewrite_in_place_under_a_barrier(self, raw):
        """Versions 6 and 8 sit on the same side of barrier 5: 8 takes
        6's slot over. 3 is below the barrier and keeps its own."""
        raw.set_retention_barriers((5,))
        (first,) = raw.put([1], [-1], 3, self.rows(3))
        (second,) = raw.put([1], [first], 6, self.rows(6))
        assert second != first  # a barrier lies in [3, 6)
        (third,) = raw.put([1], [second], 8, self.rows(8))
        assert third == second
        assert self.chain(raw, third) == [(3, 3.0), (8, 8.0)]

    def test_read_at_most_of_absent_and_barred_keys(self, raw):
        raw.set_retention_barriers((4,))
        a, b = raw.put([1, 2], [-1, -1], [2, 6], self.rows(2, 6))
        (a,) = raw.put([1], [a], 9, self.rows(9))
        # Key 1 has 2 and 9, key 2 has 6, key 3 (head -1) has nothing.
        versions, rows = raw.read_at_most([a, b, -1], 5)
        assert versions.tolist() == [2, NO_VERSION, NO_VERSION]
        assert rows[:, 0].tolist() == [2.0, 0.0, 0.0]
        reads = raw.pool.device.read_ops
        versions, rows = raw.read_at_most([a, b, -1, a], np.array([9, 7, 7, 1]))  # per key
        assert versions.tolist() == [9, 6, NO_VERSION, NO_VERSION]
        assert rows[:, 0].tolist() == [9.0, 6.0, 0.0, 0.0]
        assert raw.pool.device.read_ops - reads == 2  # only what was found is charged
        with pytest.raises(KeyError):
            raw.read_latest([a, -1])

    def test_export_ingest_and_drop_by_head(self, raw):
        raw.set_retention_barriers((4,))
        heads = raw.put([1, 2, 1], [-1, -1, -1], [2, 6, 9], self.rows(2, 6, 9))
        block = raw.export([1, 3, 2], [heads[0], -1, heads[1]])
        assert block.keys.tolist() == [1, 3, 2]
        assert block.nversions.tolist() == [2, 0, 1]
        assert block.batch_ids.tolist() == [2, 9, 6]
        other = VersionedEntryStore(PmemPool(1 << 16), entry_bytes=16)
        taken = other.ingest(block)
        assert taken[1] == -1 and other.slab.key[taken[[0, 2]]].tolist() == [1, 2]
        assert self.chain(other, taken[0]) == [(2, 2.0), (9, 9.0)]
        assert raw.drop([heads[0], -1]) == 2 and raw.total_versions() == 1

    def test_every_slot_holds_a_row(self, raw):
        """The slab is a matrix from its first slot on, and a write
        without rows is no write."""
        assert raw.slab.data.shape == (raw.slab.capacity, 4)
        with pytest.raises(AttributeError):
            raw.put([1], [-1], 0, None)
        assert raw.total_versions() == 0 and raw.pool.used_bytes == 0

    def test_the_empty_block_ingests_nothing(self, raw):
        assert len(raw.ingest(NO_ENTRIES)) == 0
        assert raw.total_versions() == 0 and raw.pool.device.write_ops == 0

    def test_dropped_keys_slot_reused_by_another_key(self, raw):
        """A head is only ever what a call returned for that key: after a
        drop the caller holds -1, and whoever gets the slot next starts
        its own chain there."""
        (old,) = raw.put([1], [-1], 3, self.rows(3))
        assert raw.drop([old]) == 1
        (new,) = raw.put([2], [-1], 1, self.rows(1))
        assert new == old  # the slot is recycled ...
        assert self.chain(raw, new) == [(1, 1.0)]  # ... with no link to key 1's past
        (again,) = raw.put([1], [-1], 4, self.rows(4))
        assert again != new and self.chain(raw, again) == [(4, 4.0)]
        keys, heads, versions = raw.rebuild_from_pool()
        assert dict(zip(keys.tolist(), zip(heads.tolist(), versions.tolist()))) == {
            1: (again, 4), 2: (new, 1),
        }


# ----------------------------------------------------------------------
# model test: the block API against a plain dict
# ----------------------------------------------------------------------

SLOT = 16
MODEL_CAPACITY = 7 * SLOT  # small enough that blocks run out of space
MODEL_KEYS = st.integers(0, 5)
MODEL_VERSIONS = st.integers(0, 9)


def _block():
    return st.lists(st.tuples(MODEL_KEYS, MODEL_VERSIONS), min_size=1, max_size=6)


def model_operations():
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), _block()),
            st.tuples(st.just("ingest"), _block()),
            st.tuples(st.just("read_latest"), st.lists(MODEL_KEYS, max_size=5)),
            st.tuples(st.just("export"), st.lists(MODEL_KEYS, max_size=5)),
            st.tuples(
                st.just("read_at_most"),
                st.tuples(st.lists(MODEL_KEYS, max_size=5), MODEL_VERSIONS),
            ),
            st.tuples(st.just("barriers"), st.lists(MODEL_VERSIONS, max_size=3)),
            st.tuples(st.just("recycle"), st.none()),
            st.tuples(st.just("drop_key"), MODEL_KEYS),
            st.tuples(st.just("checkpoint"), MODEL_VERSIONS),
            st.tuples(st.just("crash_recover"), st.none()),
        ),
        min_size=1,
        max_size=30,
    )


class StoreModel:
    """What the store should hold, one dict entry per version."""

    def __init__(self):
        self.rows: dict[tuple[int, int], float] = {}
        self.barriers: tuple[int, ...] = ()
        self.checkpoint = NO_CHECKPOINT
        self.written = self.read = 0  # device operations charged

    def versions_of(self, key):
        return sorted(v for k, v in self.rows if k == key)

    def keys(self):
        return sorted({k for k, __ in self.rows})

    def prune(self, key):
        versions = self.versions_of(key)
        keep = {versions[-1]} if versions else set()
        for barrier in self.barriers:
            eligible = [v for v in versions if v <= barrier]
            if eligible:
                keep.add(eligible[-1])
        for version in versions:
            if version not in keep:
                del self.rows[(key, version)]
        return len(versions) - len(keep)

    def write(self, block, values, prune):
        """Row by row, the way the per-key store did it. Returns False
        (nothing written) when the block's new versions do not fit."""
        added = len({pair for pair in block if pair not in self.rows})
        if (len(self.rows) + added) * SLOT > MODEL_CAPACITY:
            return False
        for (key, version), value in zip(block, values):
            self.rows[(key, version)] = value
            self.written += 1
            if prune:
                self.prune(key)
        return True

    def at_most(self, key, barrier):
        eligible = [v for v in self.versions_of(key) if v <= barrier]
        return eligible[-1] if eligible else NO_VERSION


def _assert_store_matches(store, model):
    pool, slab = store.pool, store.slab
    for key in range(6):
        assert store.versions_of(key) == model.versions_of(key), f"key {key}"
        assert store.has(key) == bool(model.versions_of(key))
    assert sorted(store.keys()) == model.keys()
    assert store.total_versions() == len(model.rows)
    assert pool.used_bytes == len(model.rows) * SLOT
    device = pool.device
    assert (device.write_ops, device.bytes_written) == (model.written, model.written * SLOT)
    assert (device.read_ops, device.bytes_read) == (model.read, model.read * SLOT)
    # Slot reuse: every indexed version sits in its own live slot, and
    # no live slot is on the free stack (so none can be handed out twice).
    slots = [slot for key in store.keys() for slot in store._chain(key)]
    assert len(set(slots)) == len(slots) == slab.rows == int(slab.live.sum())
    assert slab.live[slots].all()
    free = slab._free[: slab.free_rows].tolist()
    assert len(set(free)) == len(free) and not slab.live[free].any()
    assert slab.rows + slab.free_rows == slab.capacity
    for slot in slots:
        pair = (int(slab.key[slot]), int(slab.batch[slot]))
        assert slab.data[slot, 0] == model.rows[pair]


@given(ops=model_operations())
# Unpruned ingested versions leave a chain that is not minimal; the put
# after them must prune it back to [7] (no barrier keeps 3 or 5).
@example(ops=[
    ("ingest", [(0, 3)]), ("ingest", [(0, 5)]), ("put", [(0, 7)]), ("read_latest", [0]),
])
@settings(max_examples=150, deadline=None)
def test_block_store_matches_dict_model(ops):
    pool = PmemPool(MODEL_CAPACITY)
    store = KeyedStore(VersionedEntryStore(pool, entry_bytes=SLOT))
    model = StoreModel()
    stamp = 0.0
    for op, arg in ops:
        if op in ("put", "ingest"):
            values = [stamp + i + 1 for i in range(len(arg))]
            stamp += len(arg)
            rows = np.repeat(np.array(values, dtype=np.float32)[:, None], 4, axis=1)
            keys = [key for key, __ in arg]
            versions = [version for __, version in arg]
            if op == "put":
                write = lambda: store.put(keys, versions, rows)
            else:  # any (key, version) sequence is a block of one-version keys
                block = EntryBlock(
                    keys=np.array(keys, dtype=np.uint64),
                    nversions=np.ones(len(keys), dtype=np.uint32),
                    batch_ids=np.array(versions, dtype=np.int64),
                    rows=rows,
                )
                write = lambda: store.ingest(block)
            if model.write(arg, values, prune=op == "put"):
                write()
            else:
                with pytest.raises(OutOfSpaceError):
                    write()
        elif op == "read_latest":
            if all(model.versions_of(key) for key in arg):
                versions, rows = store.read_latest(arg)
                model.read += len(arg)
                want = [model.versions_of(key)[-1] for key in arg]
                assert versions.tolist() == want
                if arg:
                    assert rows[:, 0].tolist() == [
                        model.rows[pair] for pair in zip(arg, want)
                    ]
            else:
                with pytest.raises(KeyError):
                    store.read_latest(arg)
        elif op == "export":
            block = store.export(arg)
            retained = [model.versions_of(key) for key in arg]
            model.read += sum(map(len, retained))
            assert block.keys.tolist() == arg
            assert block.nversions.tolist() == [len(v) for v in retained]
            assert block.batch_ids.tolist() == [v for vs in retained for v in vs]
            assert block.rows[:, 0].tolist() == [
                model.rows[key, v] for key, vs in zip(arg, retained) for v in vs
            ]
        elif op == "read_at_most":
            keys, barrier = arg
            versions, rows = store.read_at_most(keys, barrier)
            want = [model.at_most(key, barrier) for key in keys]
            model.read += sum(version != NO_VERSION for version in want)
            assert versions.tolist() == want
            assert rows[:, 0].tolist() == [
                model.rows.get((key, version), 0.0)
                for key, version in zip(keys, want)
            ]
        elif op == "barriers":
            model.barriers = tuple(arg)
            store.set_retention_barriers(tuple(arg))
        elif op == "recycle":
            assert store.recycle() == sum(model.prune(key) for key in model.keys())
        elif op == "drop_key":
            dropped = model.versions_of(arg)
            for version in dropped:
                del model.rows[(arg, version)]
            assert store.drop_key(arg) == len(dropped)
        elif op == "checkpoint":
            model.checkpoint = arg
            store.set_checkpointed_batch_id(arg)
        else:  # the process dies; a fresh store recovers from the pool
            pool.crash()
            store = KeyedStore(VersionedEntryStore(pool, entry_bytes=SLOT))
            store.set_retention_barriers(model.barriers)
            if model.checkpoint == NO_CHECKPOINT:
                with pytest.raises(RecoveryError):
                    store.recover()
                store.rebuild_from_pool()
            else:
                for pair in [p for p in model.rows if p[1] > model.checkpoint]:
                    del model.rows[pair]
                assert store.recover() == {
                    key: model.versions_of(key)[-1] for key in model.keys()
                }
        _assert_store_matches(store, model)


# ----------------------------------------------------------------------
# the prune rule: a put skips its prune walk only while every chain is
# minimal under the barriers, and so agrees with a store that prunes on
# every put
# ----------------------------------------------------------------------


class _PrunesEveryPut(VersionedEntryStore):
    """The store with its invariant forced off: every put walks the
    chains of the keys it wrote."""

    _minimal = property(lambda self: False, lambda self, value: None)


PRUNE_RULE_OPS = ["put"] * 6 + ["add"] * 3 + ["release"] * 2 + ["recycle"] * 2 + ["ingest", "crash"]


def prune_rule_operations(rng, n):
    """``n`` operations: puts of keys 0-4 around a rising batch clock,
    so that barriers often fall between a key's versions (and a put may
    still land on or below one), mixed with barrier adds and releases,
    recycles, migrations of a key (its versions dropped, then a block
    of them ingested) and crashes."""
    ops, clock = [], 0
    for kind in rng.choice(PRUNE_RULE_OPS, n).tolist():
        near = lambda size=None: rng.integers(max(0, clock - 3), clock + 2, size)
        if kind == "put":
            size = rng.integers(1, 5)
            arg = list(zip(rng.integers(0, 5, size).tolist(), near(size).tolist()))
            clock += 1
        elif kind == "release":
            arg = int(rng.integers(0, 4))
        elif kind == "ingest":
            arg = int(rng.integers(0, 5)), set(near(rng.integers(1, 4)).tolist())
        else:
            arg = None if kind == "recycle" else int(near())
        ops.append((kind, arg))
    return ops


def rows_of(values):
    return np.repeat(np.asarray(values, dtype=np.float32)[:, None], SLOT // 4, axis=1)


def _live_pairs(store):
    slab = store.slab
    live = np.flatnonzero(slab.live)
    return sorted(zip(slab.key[live].tolist(), slab.batch[live].tolist()))


def _assert_same_answers(store, reference, barriers):
    assert _live_pairs(store) == _live_pairs(reference)
    keys = sorted(store.keys())
    assert keys == sorted(reference.keys())
    reads = [lambda s: s.read_latest(keys)]
    reads += [lambda s, b=b: s.read_at_most(keys, b) for b in barriers]
    for read in reads:
        (versions, rows), (want, want_rows) = read(store), read(reference)
        assert versions.tolist() == want.tolist() and rows.tobytes() == want_rows.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_put_prunes_exactly_as_a_store_that_always_prunes(seed):
    """Skipping the prune walk while every chain is minimal changes no
    live version and no answer: a released barrier, an ingest and a
    recovery scan each make the next puts prune again."""
    stores = [
        KeyedStore(kind(PmemPool(1 << 16), entry_bytes=SLOT))
        for kind in (VersionedEntryStore, _PrunesEveryPut)
    ]
    barriers = []
    for op, arg in prune_rule_operations(np.random.default_rng(seed), 150):
        if op == "add" and arg not in barriers:
            barriers.append(arg)
        elif op == "release" and barriers:
            barriers.pop(arg % len(barriers))
        for at, store in enumerate(stores):
            if op in ("add", "release"):
                store.set_retention_barriers(tuple(barriers))
            elif op == "put":
                values = np.arange(len(arg), dtype=np.float32)
                store.put([k for k, __ in arg], [v for __, v in arg], rows_of(values))
            elif op == "recycle":
                store.recycle()
            elif op == "ingest":  # the key migrates away and back
                key, versions = arg[0], np.array(sorted(arg[1]), dtype=np.int64)
                store.drop_key(key)
                block = EntryBlock(
                    keys=np.array([key], dtype=np.uint64),
                    nversions=np.array([len(versions)], dtype=np.uint32),
                    batch_ids=versions,
                    rows=rows_of(versions.astype(np.float32)),
                )
                store._set(block.keys, store.store.ingest(block))
            else:  # crash: a fresh store on the pool, barriers first
                store.pool.crash()
                stores[at] = KeyedStore(type(store.store)(store.pool, entry_bytes=SLOT))
                stores[at].set_retention_barriers(tuple(barriers))
                stores[at].discard_newer_than(arg)
        _assert_same_answers(*stores, barriers)

