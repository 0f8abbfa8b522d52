"""Tagged handles, embedding entries, and the entry arena."""

import pytest

from repro.core.entry import Location, pack_handle, unpack_handle
from repro.errors import ServerError
from tests.harness.entry import EmbeddingEntry, EntryArena


class TestTaggedHandles:
    def test_roundtrip_dram(self):
        handle = pack_handle(42, Location.DRAM)
        assert unpack_handle(handle) == (42, Location.DRAM)

    def test_roundtrip_pmem(self):
        handle = pack_handle(42, Location.PMEM)
        assert unpack_handle(handle) == (42, Location.PMEM)

    def test_low_bit_is_the_tag(self):
        assert pack_handle(7, Location.DRAM) % 2 == 0
        assert pack_handle(7, Location.PMEM) % 2 == 1

    def test_slot_zero(self):
        assert unpack_handle(pack_handle(0, Location.PMEM)) == (0, Location.PMEM)

    def test_large_slot(self):
        slot = 2**40
        assert unpack_handle(pack_handle(slot, Location.DRAM))[0] == slot

    def test_negative_slot_rejected(self):
        with pytest.raises(ServerError):
            pack_handle(-1, Location.DRAM)

    def test_negative_handle_rejected(self):
        with pytest.raises(ServerError):
            unpack_handle(-2)


class TestEmbeddingEntry:
    def test_defaults(self):
        entry = EmbeddingEntry(5)
        assert entry.key == 5
        assert entry.version == -1
        assert entry.in_dram
        assert not entry.dirty
        assert not entry.in_lru

    def test_slots_block_arbitrary_attrs(self):
        entry = EmbeddingEntry(1)
        with pytest.raises(AttributeError):
            entry.bogus = 1


class TestEntryArena:
    def test_alloc_get(self):
        arena = EntryArena()
        entry = EmbeddingEntry(1)
        slot = arena.alloc(entry)
        assert arena.get(slot) is entry
        assert entry.slot == slot

    def test_free_and_reuse(self):
        arena = EntryArena()
        a, b = EmbeddingEntry(1), EmbeddingEntry(2)
        slot_a = arena.alloc(a)
        arena.alloc(b)
        arena.free(slot_a)
        assert len(arena) == 1
        c = EmbeddingEntry(3)
        assert arena.alloc(c) == slot_a  # slot recycled

    def test_dangling_handle_detected(self):
        arena = EntryArena()
        slot = arena.alloc(EmbeddingEntry(1))
        arena.free(slot)
        with pytest.raises(ServerError):
            arena.get(slot)

    def test_invalid_slot(self):
        with pytest.raises(ServerError):
            EntryArena().get(0)
