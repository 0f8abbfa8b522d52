"""Test oracle leaf: intrusive LRU list over embedding entries.

Production orders replacement by a stamp column (:mod:`repro.core.cache`);
this linked list is what the per-key oracle evicts from.

The paper keeps hot entries in DRAM under an LRU-like policy whose
maintenance is deferred to the pipelined maintainer threads (Section
V-B). The list is intrusive — prev/next pointers live on the entry —
matching the C++ implementation and giving O(1) reorder/evict.

Because an entry's ``version`` is assigned from the monotonically
increasing batch id at every (re)insertion to the front, the list is
always sorted front-to-back by non-increasing version; the tail victim
therefore carries the oldest version in the cache (Algorithm 2 tests it
for checkpoint completion; the oracle, like production, asks instead
whether any listed entry still owes the checkpoint).
"""

from __future__ import annotations

from typing import Iterator

from tests.harness.entry import EmbeddingEntry
from repro.errors import ServerError


class LRUList:
    """Doubly-linked intrusive LRU list (front = most recent)."""

    def __init__(self) -> None:
        self._head: EmbeddingEntry | None = None
        self._tail: EmbeddingEntry | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, entry: EmbeddingEntry) -> bool:
        return entry.in_lru

    def push_front(self, entry: EmbeddingEntry) -> None:
        """Insert a not-yet-listed entry at the MRU position."""
        if entry.in_lru:
            raise ServerError(f"entry {entry.key} already in LRU list")
        entry.lru_prev = None
        entry.lru_next = self._head
        if self._head is not None:
            self._head.lru_prev = entry
        self._head = entry
        if self._tail is None:
            self._tail = entry
        entry.in_lru = True
        self._size += 1

    def move_to_front(self, entry: EmbeddingEntry) -> None:
        """Reorder an accessed entry to MRU (Algorithm 2's ``reorder``).

        Inserting an unlisted entry is allowed and equivalent to
        :meth:`push_front`, which is what happens the first time a newly
        created entry reaches the maintainer.
        """
        if not entry.in_lru:
            self.push_front(entry)
            return
        head = self._head
        if head is entry:
            return
        # Unlink (entry is listed and not the head, so it has a prev)
        # and relink at the front in one go.
        prev, nxt = entry.lru_prev, entry.lru_next
        prev.lru_next = nxt
        if nxt is not None:
            nxt.lru_prev = prev
        else:
            self._tail = prev
        entry.lru_prev = None
        entry.lru_next = head
        head.lru_prev = entry
        self._head = entry

    def peek_victim(self) -> EmbeddingEntry:
        """The LRU tail — Algorithm 2's ``findOldestEntry`` (no removal).

        Raises:
            ServerError: the list is empty.
        """
        if self._tail is None:
            raise ServerError("LRU list is empty; no victim available")
        return self._tail

    def remove(self, entry: EmbeddingEntry) -> None:
        """Unlink ``entry`` (eviction)."""
        if not entry.in_lru:
            raise ServerError(f"entry {entry.key} not in LRU list")
        self._unlink(entry)

    def pop_victim(self) -> EmbeddingEntry:
        """Remove and return the LRU tail."""
        victim = self.peek_victim()
        self._unlink(victim)
        return victim

    def __iter__(self) -> Iterator[EmbeddingEntry]:
        """Iterate front (MRU) to back (LRU)."""
        node = self._head
        while node is not None:
            yield node
            node = node.lru_next

    def validate(self, check_version_order: bool = True) -> None:
        """Check structural invariants; used by tests.

        Args:
            check_version_order: also require front-to-back versions to
                be non-increasing. That property is an *LRU* invariant
                (versions are assigned at reorder time from the monotone
                batch counter); FIFO/CLOCK users pass False.

        Raises:
            ServerError: on any broken link, count mismatch, or (when
                checked) a version inversion.
        """
        count = 0
        prev: EmbeddingEntry | None = None
        node = self._head
        while node is not None:
            if node.lru_prev is not prev:
                raise ServerError(f"broken prev link at key {node.key}")
            if check_version_order and prev is not None and node.version > prev.version:
                raise ServerError(
                    f"version inversion: {prev.key}(v{prev.version}) before "
                    f"{node.key}(v{node.version})"
                )
            if not node.in_lru:
                raise ServerError(f"listed entry {node.key} has in_lru=False")
            prev = node
            node = node.lru_next
            count += 1
        if prev is not self._tail:
            raise ServerError("tail pointer does not match last node")
        if count != self._size:
            raise ServerError(f"size mismatch: counted {count}, recorded {self._size}")

    def _unlink(self, entry: EmbeddingEntry) -> None:
        if entry.lru_prev is not None:
            entry.lru_prev.lru_next = entry.lru_next
        else:
            self._head = entry.lru_next
        if entry.lru_next is not None:
            entry.lru_next.lru_prev = entry.lru_prev
        else:
            self._tail = entry.lru_prev
        entry.lru_prev = None
        entry.lru_next = None
        entry.in_lru = False
        self._size -= 1
