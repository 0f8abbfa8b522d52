"""DRAM hash index: tag-bit consistency with entry locations."""

import pytest

from repro.core.entry import Location
from repro.errors import ServerError
from tests.harness.entry import EmbeddingEntry
from tests.harness.hash_index import HashIndex


@pytest.fixture
def index():
    return HashIndex()


def make(key, location=Location.DRAM):
    entry = EmbeddingEntry(key)
    entry.location = location
    return entry


class TestIndex:
    def test_find_missing_returns_none(self, index):
        assert index.find(1) is None

    def test_insert_find(self, index):
        entry = make(1)
        index.insert(entry)
        assert index.find(1) is entry
        assert 1 in index
        assert len(index) == 1

    def test_duplicate_insert_rejected(self, index):
        index.insert(make(1))
        with pytest.raises(ServerError):
            index.insert(make(1))

    def test_location_of_reads_tag_bit(self, index):
        index.insert(make(1, Location.PMEM))
        assert index.location_of(1) == Location.PMEM

    def test_set_location_flips_tag_and_entry(self, index):
        entry = make(1, Location.DRAM)
        index.insert(entry)
        index.set_location(entry, Location.PMEM)
        assert entry.location == Location.PMEM
        assert index.location_of(1) == Location.PMEM
        index.validate()

    def test_set_location_unindexed_rejected(self, index):
        with pytest.raises(ServerError):
            index.set_location(make(1), Location.PMEM)

    def test_remove(self, index):
        index.insert(make(1))
        index.remove(1)
        assert index.find(1) is None
        with pytest.raises(KeyError):
            index.remove(1)

    def test_slot_reuse_after_remove(self, index):
        first = make(1)
        index.insert(first)
        index.remove(1)
        second = make(2)
        index.insert(second)
        assert index.find(2) is second
        index.validate()

    def test_entries_iteration(self, index):
        for key in range(5):
            index.insert(make(key))
        assert sorted(e.key for e in index.entries()) == list(range(5))
        assert sorted(index.keys()) == list(range(5))

    def test_validate_detects_desync(self, index):
        entry = make(1, Location.DRAM)
        index.insert(entry)
        entry.location = Location.PMEM  # bypassing set_location
        with pytest.raises(ServerError):
            index.validate()
