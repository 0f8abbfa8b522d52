"""LRU list: ordering, eviction, and the version-order invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerError
from tests.harness.entry import EmbeddingEntry
from tests.harness.lru import LRUList


def entry(key, version=0):
    e = EmbeddingEntry(key, version=version)
    return e


class TestBasicOps:
    def test_push_front_order(self):
        lru = LRUList()
        a, b = entry(1), entry(2)
        lru.push_front(a)
        lru.push_front(b)
        assert [e.key for e in lru] == [2, 1]

    def test_victim_is_tail(self):
        lru = LRUList()
        a, b = entry(1), entry(2)
        lru.push_front(a)
        lru.push_front(b)
        assert lru.peek_victim() is a

    def test_move_to_front(self):
        lru = LRUList()
        a, b, c = entry(1), entry(2), entry(3)
        for e in (a, b, c):
            lru.push_front(e)
        lru.move_to_front(a)
        assert [e.key for e in lru] == [1, 3, 2]
        assert lru.peek_victim() is b

    def test_move_to_front_inserts_unlisted(self):
        lru = LRUList()
        a = entry(1)
        lru.move_to_front(a)
        assert a.in_lru
        assert len(lru) == 1

    def test_move_head_is_noop(self):
        lru = LRUList()
        a, b = entry(1), entry(2)
        lru.push_front(a)
        lru.push_front(b)
        lru.move_to_front(b)
        assert [e.key for e in lru] == [2, 1]

    def test_pop_victim_removes(self):
        lru = LRUList()
        a, b = entry(1), entry(2)
        lru.push_front(a)
        lru.push_front(b)
        victim = lru.pop_victim()
        assert victim is a
        assert not a.in_lru
        assert len(lru) == 1

    def test_remove_middle(self):
        lru = LRUList()
        a, b, c = entry(1), entry(2), entry(3)
        for e in (a, b, c):
            lru.push_front(e)
        lru.remove(b)
        assert [e.key for e in lru] == [3, 1]

    def test_remove_only_element(self):
        lru = LRUList()
        a = entry(1)
        lru.push_front(a)
        lru.remove(a)
        assert len(lru) == 0
        with pytest.raises(ServerError):
            lru.peek_victim()

    def test_double_push_rejected(self):
        lru = LRUList()
        a = entry(1)
        lru.push_front(a)
        with pytest.raises(ServerError):
            lru.push_front(a)

    def test_remove_unlisted_rejected(self):
        with pytest.raises(ServerError):
            LRUList().remove(entry(1))

    def test_contains(self):
        lru = LRUList()
        a = entry(1)
        assert a not in lru
        lru.push_front(a)
        assert a in lru


class TestVersionOrderInvariant:
    """Front-to-back versions are non-increasing because versions come
    from the monotone batch counter at (re)insertion — the property the
    checkpoint-completion test depends on."""

    def test_validate_accepts_monotone(self):
        lru = LRUList()
        for batch, key in enumerate(range(5)):
            e = entry(key, version=batch)
            lru.push_front(e)
        lru.validate()

    def test_validate_rejects_inversion(self):
        lru = LRUList()
        lru.push_front(entry(1, version=5))
        lru.push_front(entry(2, version=3))  # newer position, older version
        with pytest.raises(ServerError):
            lru.validate()

    @given(st.lists(st.integers(0, 19), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_random_access_stream_keeps_invariants(self, accesses):
        """Replay an access stream with monotone versions; the list's
        structure and version ordering must always validate, and the
        victim must always be the least recently accessed key."""
        lru = LRUList()
        entries = {}
        last_access = {}
        for batch, key in enumerate(accesses):
            e = entries.setdefault(key, entry(key))
            e.version = batch
            lru.move_to_front(e)
            last_access[key] = batch
        lru.validate()
        expected_victim = min(last_access, key=last_access.get)
        assert lru.peek_victim().key == expected_victim
        assert len(lru) == len(last_access)
