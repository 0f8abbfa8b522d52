"""DRAM hash index: key -> entry slot, tagged handle per slot.

Figure 4/5: every request thread consults the *DRAM-based Hash Index* to
locate an entry in either DRAM or PMem; the stored value is a tagged
pointer whose low bit is the location. The index itself is volatile —
after a crash it is reconstructed from the PMem scan
(:mod:`repro.core.recovery`).

The index is the one key -> slot map of a node: an open-addressing table
(linear probing over a power-of-two array, Fibonacci hashing of the
``uint64`` key) whose probe runs for a whole batch at once —
:meth:`HashIndex.lookup` takes an array of keys and returns an array of
slots, ``-1`` where a key is absent. A slot addresses the
:class:`~repro.core.entry.EntryColumns` the index owns; the ``handle``
column holds the paper's tagged pointers and stays the authority for
location, so a maintenance round that moves thousands of entries between
tiers re-tags them with one array assignment.

Emptiness is a property of the table's *slot* cell (``_EMPTY`` /
``_TOMB``), never of its key cell, so every ``uint64`` — ``2**64 - 1``
included — is a storable key. A removed key leaves a tombstone that
later inserts reuse; the table is rebuilt when live cells plus
tombstones pass half of it, which keeps probe chains short.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.entry import EntryColumns, EntryView, Location
from repro.errors import ServerError

_EMPTY = -1
_TOMB = -2
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio
_MIN_CELLS = 512


class HashIndex:
    """Vectorised key -> slot table plus the columns the slots address."""

    def __init__(self) -> None:
        self.columns = EntryColumns()
        #: Keys removed so far. :meth:`remove_many` is the only place a
        #: slot is freed, so slots resolved while this held still are
        #: the same keys' slots.
        self.removals = 0
        self._reset(_MIN_CELLS)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, key: int) -> bool:
        return self.find(key) is not None

    @property
    def load_factor(self) -> float:
        """Occupied share of the table (live keys + tombstones)."""
        return self._used / len(self._slots)

    # ------------------------------------------------------------------
    # batch interface (the hot path)
    # ------------------------------------------------------------------

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Slot of every key of ``keys`` (``uint64``), ``-1`` if absent."""
        cell = self._home(keys)
        slots = self._slots[cell]
        hit = self._keys[cell] == keys
        hit &= slots >= 0
        found = np.where(hit, slots, -1)
        # Whatever neither hit nor ended on an empty cell collided (or
        # passed a tombstone) and walks on: a shrinking set.
        at = walking = ((slots != _EMPTY) ^ hit).nonzero()[0]
        while len(at):
            cell = (cell[walking] + 1) & self._mask
            slots = self._slots[cell]
            hit = self._keys[cell] == keys[at]
            hit &= slots >= 0
            found[at[hit]] = slots[hit]
            walking = ((slots != _EMPTY) ^ hit).nonzero()[0]
            at = at[walking]
        return found

    def insert_many(self, keys: np.ndarray, location: Location) -> np.ndarray:
        """Index ``keys`` — distinct and all absent — as one block.

        Reserves a slot per key, writes its ``key`` and tagged ``handle``
        and returns the slots; the caller fills the other columns.
        """
        if 2 * (self._used + len(keys)) > len(self._slots):
            cells = len(self._slots)
            while cells < 4 * (len(self.columns) + len(keys)):
                cells *= 2
            self._reset(cells)  # grown, or just swept of its tombstones
            occupied = self.columns.live()
            self._place(self.columns.key[occupied], occupied)
        slots = self.columns.alloc(len(keys))
        self.columns.key[slots] = keys
        self.columns.handle[slots] = (slots << 1) | int(location)
        self._place(keys, slots)
        return slots

    def remove_many(self, keys: np.ndarray) -> None:
        """Drop ``keys`` (distinct) entirely: the entries leave the node.

        Raises:
            KeyError: an unknown key (nothing is removed).
        """
        slots = self.lookup(keys)
        if len(slots) and slots.min() < 0:
            raise KeyError(int(keys[slots < 0][0]))
        self.columns.free(slots)
        # A live slot sits in one cell; removals are rare, so a scan finds them.
        self._slots[np.isin(self._slots, slots)] = _TOMB
        self.removals += len(slots)

    def remove(self, key: int) -> None:
        """:meth:`remove_many` for one key."""
        self.remove_many(np.array([key], dtype=np.uint64))

    # ------------------------------------------------------------------
    # one-key introspection (tests, node tooling)
    # ------------------------------------------------------------------

    def find(self, key: int) -> EntryView | None:
        """Look up ``key``; returns None when absent (Algorithm 1 ``find``)."""
        if not 0 <= key < 1 << 64:
            return None
        slot = int(self.lookup(np.array([key], dtype=np.uint64))[0])
        return EntryView(self.columns, slot) if slot >= 0 else None

    def location_of(self, key: int) -> Location:
        """Read the tag bit of ``key``'s handle.

        Raises:
            KeyError: unknown key.
        """
        entry = self.find(key)
        if entry is None:
            raise KeyError(key)
        return entry.location

    def entries(self) -> Iterator[EntryView]:
        """Iterate a view of every indexed entry (slot order)."""
        return (EntryView(self.columns, slot) for slot in self.columns.live().tolist())

    def keys(self) -> np.ndarray:
        """Every indexed key (``uint64``, slot order)."""
        return self.columns.key[self.columns.live()]

    def validate(self) -> None:
        """Check table/column consistency; used by tests."""
        columns = self.columns
        live = columns.live()
        if not (len(live) == len(columns) == np.count_nonzero(self._slots >= 0)):
            raise ServerError(
                f"{len(live)} slots carry a handle, {len(columns)} are allocated, "
                f"{np.count_nonzero(self._slots >= 0)} are in the table"
            )
        if np.any(columns.handle[live] >> 1 != live):
            raise ServerError("a handle's upper bits are not its slot")
        if not np.array_equal(self.lookup(columns.key[live]), live):
            raise ServerError("a live key does not resolve to its own slot")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _reset(self, cells: int) -> None:
        self._keys = np.zeros(cells, dtype=np.uint64)
        self._slots = np.full(cells, _EMPTY, dtype=np.int64)
        self._used = 0
        self._mask = cells - 1
        self._shift = np.uint64(64 - cells.bit_length() + 1)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """First cell of each key's probe sequence (below ``2**63`` after
        the shift, so the uint64 bits read as the same int64)."""
        return ((keys * _GOLDEN) >> self._shift).view(np.int64)

    def _place(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Write ``keys[i] -> slots[i]`` into the table (keys absent)."""
        table = self._slots
        cell = self._home(keys)
        while len(keys):
            before = table[cell]
            free = before < 0
            # Several new keys may want one free cell: the largest slot
            # wins it, the others walk on.
            np.maximum.at(table, cell[free], slots[free])
            won = table[cell] == slots
            self._keys[cell[won]] = keys[won]
            self._used += int(np.count_nonzero(before[won] == _EMPTY))
            lost = ~won
            keys, slots, cell = keys[lost], slots[lost], (cell[lost] + 1) & self._mask
