"""Test oracle leaf: the dict-backed hash index (key -> entry object).

Production's index is a vectorised key -> slot table
(:mod:`repro.core.hash_index`); the per-key oracle keeps this one.

Figure 4/5: every request thread consults the *DRAM-based Hash Index* to
locate an entry in either DRAM or PMem; the stored value is a tagged
pointer whose low bit is the location. The index itself is volatile —
after a crash it is reconstructed from the PMem scan
(:mod:`repro.core.recovery`).

The tagged handles are the paper's mechanism and stay authoritative for
location tags. They live in one integer column indexed by entry slot
(a handle's upper bits *are* its slot); a lookup goes through the direct
``key -> entry`` dict and skips the handle unpack.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.entry import Location, pack_handle, unpack_handle
from tests.harness.entry import EmbeddingEntry, EntryArena
from repro.errors import ServerError


class HashIndex:
    """Key -> entry map plus the tagged handle of every entry slot.

    All mutations keep the handle's tag bit in sync with the entry's
    ``location`` field; :meth:`validate` checks that invariant.
    """

    def __init__(self) -> None:
        self._entries: dict[int, EmbeddingEntry] = {}
        self._arena = EntryArena()
        self._handles = np.zeros(256, dtype=np.int64)  # slot -> tagged handle

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def find(self, key: int) -> EmbeddingEntry | None:
        """Look up ``key``; returns None when absent (Algorithm 1 ``find``)."""
        return self._entries.get(key)

    def location_of(self, key: int) -> Location:
        """Read the tag bit without dereferencing the entry's location.

        Raises:
            KeyError: unknown key.
        """
        __, location = unpack_handle(int(self._handles[self._entries[key].slot]))
        return location

    def insert(self, entry: EmbeddingEntry) -> None:
        """Register a new entry.

        Raises:
            ServerError: the key is already present.
        """
        if entry.key in self._entries:
            raise ServerError(f"key {entry.key} already indexed")
        slot = self._arena.alloc(entry)
        if slot >= len(self._handles):
            self._handles = np.concatenate([self._handles, np.zeros_like(self._handles)])
        self._handles[slot] = pack_handle(slot, entry.location)
        self._entries[entry.key] = entry

    def set_location(self, entry: EmbeddingEntry, location: Location) -> None:
        """Flip the entry's location and its handle's tag bit together."""
        if entry.key not in self._entries:
            raise ServerError(f"key {entry.key} not indexed")
        entry.location = location
        self._handles[entry.slot] = pack_handle(entry.slot, location)

    def remove(self, key: int) -> None:
        """Drop ``key`` entirely (entry leaves the node)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            raise KeyError(key)
        self._arena.free(entry.slot)

    def entries(self) -> Iterator[EmbeddingEntry]:
        """Iterate all indexed entries (order unspecified)."""
        return iter(self._entries.values())

    def keys(self) -> Iterator[int]:
        return iter(self._entries)

    def validate(self) -> None:
        """Check tag-bit/entry consistency; used by tests."""
        if len(self._entries) != len(self._arena):
            raise ServerError(
                f"direct map holds {len(self._entries)} entries, "
                f"entry arena {len(self._arena)}"
            )
        for key, entry in self._entries.items():
            slot, location = unpack_handle(int(self._handles[entry.slot]))
            if entry.key != key or self._arena.get(slot) is not entry:
                raise ServerError(f"handle for {key} resolves to another entry")
            if entry.location != location:
                raise ServerError(
                    f"tag bit {location.name} disagrees with entry location "
                    f"{entry.location.name} for key {key}"
                )
