"""Test oracle leaf: one Python object per embedding entry.

The per-key :class:`~tests.harness.reference_cache.ReferenceCache` keeps
the object-per-entry design production retired for slot columns
(:mod:`repro.core.entry`): an :class:`EmbeddingEntry` carries the
metadata of one key plus its intrusive LRU links, and an
:class:`EntryArena` resolves the tagged handles of the dict-backed
:class:`~tests.harness.hash_index.HashIndex` to entry objects.
"""

from __future__ import annotations

from repro.core.entry import Location
from repro.errors import ServerError


class EmbeddingEntry:
    """DRAM-side state of one embedding entry.

    The object always exists in DRAM (it is the index's target) and
    carries metadata only; whether the *payload* (weights + PS-side
    optimizer state) is DRAM-resident is tracked by ``location``. A
    resident payload hangs off the oracle's ``ReferenceEntry`` subclass;
    a PMem-resident entry's authoritative copy sits in the versioned
    store.

    Attributes:
        key: embedding id.
        version: batch id of the last access (Algorithm 1 line 10 /
            Algorithm 2 lines 16, 20).
        updated: batch id at which the entry's *state* last changed
            (creation, gradient update, or the durable version it was
            loaded from). Read-only traffic advances ``version`` but not
            ``updated``; a flush stores the entry under ``updated``, so a
            checkpoint anywhere in between finds it.
        location: DRAM or PMEM — the tag bit of the index handle.
        dirty: weights were updated since the last flush (used by the
            dirty-tracking ablation; the paper's system always flushes).
        slot: arena slot backing this entry's handle.
    """

    __slots__ = (
        "key",
        "version",
        "updated",
        "location",
        "dirty",
        "referenced",
        "slot",
        "lru_prev",
        "lru_next",
        "in_lru",
    )

    def __init__(self, key: int, version: int = -1):
        self.key = key
        self.version = version
        self.updated = version
        self.location = Location.DRAM
        self.dirty = False
        self.referenced = False
        self.slot = -1
        self.lru_prev: EmbeddingEntry | None = None
        self.lru_next: EmbeddingEntry | None = None
        self.in_lru = False

    @property
    def in_dram(self) -> bool:
        return self.location == Location.DRAM

    def __repr__(self) -> str:
        return (
            f"EmbeddingEntry(key={self.key}, version={self.version}, "
            f"loc={self.location.name}, dirty={self.dirty})"
        )


class EntryArena:
    """Slab of entries addressed by slot, backing the tagged handles.

    Models the PS node's entry allocator: the hash index never stores
    object references, only integer handles; resolving a handle goes
    through the arena, exactly like dereferencing a tagged pointer.
    """

    def __init__(self) -> None:
        self._slots: list[EmbeddingEntry | None] = []
        self._free: list[int] = []

    def alloc(self, entry: EmbeddingEntry) -> int:
        """Place ``entry`` in the arena and return its slot."""
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = entry
        else:
            slot = len(self._slots)
            self._slots.append(entry)
        entry.slot = slot
        return slot

    def get(self, slot: int) -> EmbeddingEntry:
        """Resolve a slot to its entry.

        Raises:
            ServerError: the slot is invalid or was freed.
        """
        if slot < 0 or slot >= len(self._slots):
            raise ServerError(f"invalid arena slot {slot}")
        entry = self._slots[slot]
        if entry is None:
            raise ServerError(f"arena slot {slot} is free (dangling handle)")
        return entry

    def free(self, slot: int) -> None:
        """Release a slot (the entry is gone from the node entirely)."""
        entry = self.get(slot)
        entry.slot = -1
        self._slots[slot] = None
        self._free.append(slot)

    def __len__(self) -> int:
        return len(self._slots) - len(self._free)
