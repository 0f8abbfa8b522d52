"""DRAM hash index: key -> tagged handle -> entry.

Figure 4/5: every request thread consults the *DRAM-based Hash Index* to
locate an entry in either DRAM or PMem; the stored value is a tagged
pointer whose low bit is the location. The index itself is volatile —
after a crash it is reconstructed from the PMem scan
(:mod:`repro.core.recovery`).

The tagged-handle map is the paper's mechanism and stays authoritative
for location tags; alongside it the index keeps a direct
``key -> entry`` dict so a lookup skips the handle unpack.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.entry import EmbeddingEntry, EntryArena, Location, pack_handle, unpack_handle
from repro.errors import ServerError


class HashIndex:
    """Key -> tagged-handle map over an entry arena.

    All mutations keep the handle's tag bit in sync with the entry's
    ``location`` field; :meth:`validate` checks that invariant.
    """

    def __init__(self) -> None:
        self._handles: dict[int, int] = {}
        self._arena = EntryArena()
        self._entries: dict[int, EmbeddingEntry] = {}

    def __len__(self) -> int:
        return len(self._handles)

    def __contains__(self, key: int) -> bool:
        return key in self._handles

    def find(self, key: int) -> EmbeddingEntry | None:
        """Look up ``key``; returns None when absent (Algorithm 1 ``find``)."""
        return self._entries.get(key)

    def location_of(self, key: int) -> Location:
        """Read the tag bit without dereferencing the entry.

        Raises:
            KeyError: unknown key.
        """
        __, location = unpack_handle(self._handles[key])
        return location

    def insert(self, entry: EmbeddingEntry) -> None:
        """Register a new entry.

        Raises:
            ServerError: the key is already present.
        """
        if entry.key in self._handles:
            raise ServerError(f"key {entry.key} already indexed")
        slot = self._arena.alloc(entry)
        self._handles[entry.key] = pack_handle(slot, entry.location)
        self._entries[entry.key] = entry

    def set_location(self, entry: EmbeddingEntry, location: Location) -> None:
        """Flip the entry's location and its handle's tag bit together."""
        if entry.key not in self._handles:
            raise ServerError(f"key {entry.key} not indexed")
        entry.location = location
        self._handles[entry.key] = pack_handle(entry.slot, location)

    def remove(self, key: int) -> None:
        """Drop ``key`` entirely (entry leaves the node)."""
        handle = self._handles.pop(key, None)
        if handle is None:
            raise KeyError(key)
        slot, __ = unpack_handle(handle)
        self._arena.free(slot)
        del self._entries[key]

    def entries(self) -> Iterator[EmbeddingEntry]:
        """Iterate all indexed entries (order unspecified)."""
        for handle in self._handles.values():
            slot, __ = unpack_handle(handle)
            yield self._arena.get(slot)

    def keys(self) -> Iterator[int]:
        return iter(self._handles)

    def validate(self) -> None:
        """Check tag-bit/entry consistency; used by tests."""
        if len(self._entries) != len(self._handles):
            raise ServerError(
                f"direct map holds {len(self._entries)} entries, "
                f"handle map {len(self._handles)}"
            )
        for key, handle in self._handles.items():
            slot, location = unpack_handle(handle)
            entry = self._arena.get(slot)
            if entry.key != key:
                raise ServerError(f"handle for {key} resolves to entry {entry.key}")
            if entry.location != location:
                raise ServerError(
                    f"tag bit {location.name} disagrees with entry location "
                    f"{entry.location.name} for key {key}"
                )
            if self._entries.get(key) is not entry:
                raise ServerError(f"direct map disagrees with handle for key {key}")
