"""The vectorised key -> slot index and its entry columns, against a dict."""

import numpy as np
import pytest

from repro.core.entry import EntryView, Location
from repro.core.hash_index import HashIndex
from repro.errors import ServerError


def u64(*keys):
    return np.array(keys, dtype=np.uint64)


def same_bucket(index: HashIndex, count: int) -> np.ndarray:
    """``count`` distinct keys whose probe sequences start on one cell."""
    pool = np.arange(1, 200_000, dtype=np.uint64)
    home = index._home(pool)
    return pool[home == home[0]][:count]


class TestLookup:
    def test_absent_keys_and_the_empty_batch(self):
        index = HashIndex()
        assert index.lookup(u64(0, 5, 2**64 - 1)).tolist() == [-1, -1, -1]
        assert index.lookup(u64()).tolist() == []
        assert index.find(5) is None and 5 not in index
        assert index.find(-1) is None and index.find(2**64) is None

    def test_extreme_keys_are_storable(self):
        """Emptiness lives in the table's slot cell, so neither 0 (the
        key column's free value) nor 2**64 - 1 is special."""
        index = HashIndex()
        slots = index.insert_many(u64(0, 2**64 - 1), Location.DRAM)
        assert index.lookup(u64(2**64 - 1, 1, 0)).tolist() == [slots[1], -1, slots[0]]
        assert index.find(2**64 - 1).key == 2**64 - 1
        index.remove(0)
        assert index.lookup(u64(0, 2**64 - 1)).tolist() == [-1, slots[1]]
        index.validate()

    def test_duplicates_inside_one_lookup(self):
        index = HashIndex()
        slots = index.insert_many(u64(7, 8), Location.PMEM)
        assert index.lookup(u64(8, 7, 8, 9, 8)).tolist() == [
            slots[1], slots[0], slots[1], -1, slots[1],
        ]

    def test_keys_forced_into_one_bucket(self):
        index = HashIndex()
        crowd = same_bucket(index, 40)
        assert len(np.unique(index._home(crowd))) == 1 and len(crowd) == 40
        # One block: the 40 keys collide with each other, not just with
        # what the table already holds.
        slots = index.insert_many(crowd, Location.DRAM)
        assert sorted(slots.tolist()) == list(range(40))
        assert index.lookup(crowd[::-1]).tolist() == slots[::-1].tolist()
        # A hole in the middle of the chain must not hide what is past it.
        for key in crowd[5:15].tolist():
            index.remove(key)
        expected = np.where(np.isin(crowd, crowd[5:15]), -1, slots)
        assert index.lookup(crowd).tolist() == expected.tolist()
        index.validate()


class TestMutation:
    def test_remove_reinsert_reuses_the_tombstone_and_the_slot(self):
        index = HashIndex()
        index.insert_many(u64(1, 2, 3), Location.DRAM)
        load = index.load_factor
        slot = index.find(2).slot
        index.remove(2)
        assert index.load_factor == load  # a tombstone still occupies its cell
        assert len(index) == 2 and index.lookup(u64(2)).tolist() == [-1]
        with pytest.raises(KeyError):
            index.remove(2)
        (again,) = index.insert_many(u64(2), Location.PMEM)
        assert again == slot  # lowest free slot first
        assert index.load_factor == load  # ... in the cell the tombstone held
        assert index.location_of(2) == Location.PMEM
        index.validate()

    def test_freed_slot_is_reset(self):
        index = HashIndex()
        (slot,) = index.insert_many(u64(9), Location.DRAM)
        columns = index.columns
        columns.version[slot], columns.dirty[slot], columns.stamp[slot] = 4, True, 11
        view = index.find(9)
        index.remove(9)
        # The view reads through: it now shows the free slot.
        assert (view.version, view.dirty, view.stamp, view.handle) == (-1, False, -1, -1)

    def test_tombstones_are_swept_without_growing(self):
        """Churn at a constant population: the table is rebuilt in place
        once tombstones fill it, never doubled."""
        index = HashIndex()
        cells = len(index._slots)
        for generation in range(40):
            keys = np.arange(50, dtype=np.uint64) + np.uint64(1000 * generation)
            index.insert_many(keys, Location.DRAM)
            for key in keys.tolist():
                index.remove(key)
            assert index.load_factor <= 0.5
        assert len(index) == 0 and len(index._slots) == cells

    def test_against_a_dict_across_doublings(self):
        rng = np.random.default_rng(3)
        index, model = HashIndex(), {}
        spaces = (  # dense, strided (one low-bit pattern) and random 64-bit
            lambda n: rng.integers(0, 4000, n),
            lambda n: rng.integers(0, 4000, n) << 20,
            lambda n: rng.integers(0, 2**63, n) * 2 + 1,
        )
        for round_ in range(120):
            drawn = np.unique(spaces[round_ % 3](int(rng.integers(1, 150))).astype(np.uint64))
            fresh = u64(*[key for key in drawn.tolist() if key not in model])
            if len(fresh):
                location = Location(round_ % 2)
                for key, slot in zip(fresh.tolist(), index.insert_many(fresh, location)):
                    model[key] = (int(slot), location)
            if round_ % 4 == 3:
                for key in list(model)[::3]:
                    index.remove(key)
                    del model[key]
            probe = u64(*list(model)[:200], 2**64 - 1, 12345678901234567)
            want = [model.get(key, (-1,))[0] for key in probe.tolist()]
            assert index.lookup(probe).tolist() == want
            index.validate()
        assert len(index) == len(model)
        assert len(index._slots) >= 4096  # three doublings of the table
        assert len(index.columns.handle) >= 1024  # two of the columns
        assert sorted(index.keys()) == sorted(model)
        for entry in index.entries():
            assert isinstance(entry, EntryView)
            slot, location = model[entry.key]
            assert (entry.slot, entry.location) == (slot, location)
            assert entry.in_dram == (location == Location.DRAM)

    def test_validate_detects_a_desynchronised_handle(self):
        index = HashIndex()
        (slot,) = index.insert_many(u64(1), Location.DRAM)
        index.columns.handle[slot] = ((slot + 1) << 1) | 1
        with pytest.raises(ServerError):
            index.validate()


class TestHeadColumn:
    """``head`` — the PMem pointer of a key's newest durable version — is
    one more column of the slot: it follows the key through column
    growth and table rebuilds, and a recycled slot starts without one."""

    def test_head_survives_growth_and_the_tombstone_sweep(self):
        index = HashIndex()
        keys = np.arange(1, 301, dtype=np.uint64) * np.uint64(2654435761)
        slots = index.insert_many(keys[:200], Location.PMEM)
        index.columns.head[slots] = np.arange(1000, 1200)
        assert (index.columns.head[index.columns.live()] >= 1000).all()
        # Tombstones, then enough inserts to double the columns (256 ->
        # 512 slots) and rebuild the table (swept of its tombstones).
        index.remove_many(keys[:50])
        cells = len(index._slots)
        more = index.insert_many(keys[200:], Location.DRAM)
        more = np.concatenate([more, index.insert_many(keys[:50] + np.uint64(1), Location.DRAM)])
        assert len(index.columns.handle) > 256 and len(index._slots) >= cells
        assert (index._slots != -2).all()  # no tombstone left
        found = index.lookup(keys[50:200])
        assert index.columns.head[found].tolist() == list(range(1050, 1200))
        # Fresh slots — new ones and the 50 recycled ones — carry no head.
        assert (index.columns.head[more] == -1).all()
        assert set(slots[:50].tolist()) <= set(more.tolist())
        index.validate()

    def test_remove_many_is_all_or_nothing(self):
        index = HashIndex()
        slots = index.insert_many(u64(1, 2, 3), Location.PMEM)
        index.columns.head[slots] = [7, 8, 9]
        with pytest.raises(KeyError):
            index.remove_many(u64(2, 4))
        assert index.lookup(u64(1, 2, 3)).tolist() == slots.tolist()
        index.remove_many(u64(3, 1))
        assert index.lookup(u64(1, 2, 3)).tolist() == [-1, slots[1], -1]
        assert index.columns.head[slots].tolist() == [-1, 8, -1]
        index.validate()
