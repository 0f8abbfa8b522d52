"""Tagged ("smart") pointers and the per-slot entry columns.

Section V-A: the DRAM hash index stores pointers that *"use the lowest
bit to indicate whether the target embedding entry is in DRAM or PMem"*
(after the smart pointers of Chen et al., VLDB'21). We reproduce the
mechanism literally: index handles are integers whose low bit is the
location tag and whose upper bits are an entry slot.

An entry is not an object. Everything the node knows about a key — the
PMem pointer of its newest durable version included — is one
position — its **slot** — of the :class:`EntryColumns` arrays, so a
batch of thousands of keys is probed, versioned, flushed and reordered
with array operations and no Python step per key. :class:`EntryView`
is the read-only, one-slot window tests and introspection look through.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.arena import FreeList
from repro.errors import ServerError


class Location(enum.IntEnum):
    """Where an entry's weights currently reside; doubles as the tag bit."""

    DRAM = 0
    PMEM = 1


def pack_handle(slot: int, location: Location) -> int:
    """Pack an entry slot and location tag into one index handle.

    The low bit carries the location (DRAM=0 / PMem=1); the remaining
    bits carry the slot, mirroring pointer tagging on 8-byte-aligned
    addresses.
    """
    if slot < 0:
        raise ServerError(f"slot must be non-negative, got {slot}")
    return (slot << 1) | int(location)


def unpack_handle(handle: int) -> tuple[int, Location]:
    """Inverse of :func:`pack_handle`: returns ``(slot, location)``."""
    if handle < 0:
        raise ServerError(f"handle must be non-negative, got {handle}")
    return handle >> 1, Location(handle & 1)


NO_HANDLE = -1
"""Handle of a free slot."""

_COLUMNS = (
    # name, dtype, value of a free slot
    ("key", np.uint64, 0),
    ("handle", np.int64, NO_HANDLE),
    ("version", np.int64, -1),
    ("updated", np.int64, -1),
    ("dirty", np.bool_, False),
    ("referenced", np.bool_, False),
    ("row", np.int64, -1),
    ("stamp", np.int64, -1),
    ("head", np.int64, -1),
)


class EntryColumns:
    """DRAM-side state of every entry, one array per fact, indexed by slot.

    Columns:
        key: embedding id.
        handle: the tagged pointer — ``slot << 1 | Location`` — and the
            authority for where the payload lives (:data:`NO_HANDLE`
            while the slot is free).
        version: batch id of the last access (Algorithm 1 line 10 /
            Algorithm 2 lines 16, 20).
        updated: batch id at which the entry's *state* last changed
            (creation, gradient update, or the durable version it was
            loaded from). Read-only traffic advances ``version`` but not
            ``updated``; a flush stores the row under ``updated``, so a
            checkpoint anywhere in between finds it.
        dirty: weights were updated since the last flush — the state at
            ``updated`` is in no store yet (what a pending checkpoint
            waits for; the dirty-tracking ablation also skips clean
            victims' flushes, the paper's system always flushes).
        referenced: CLOCK's second-chance bit.
        row: row of the cache's embedding arena holding the packed
            weights+state while DRAM-resident (``-1`` otherwise).
        stamp: replacement order — larger is more recent, ``-1`` means
            not listed (PMem-resident, or created and not yet seen by
            the maintainer). Stamps come from one monotone clock, so
            ``argsort(stamp)`` over the listed slots *is* the list the
            replacement policy evicts from.
        head: the PMem pointer — slot of the key's newest durable
            version in the store's slab (``-1``: none yet). The store
            keeps no key map of its own: every call into it takes the
            heads of the keys it concerns and returns the new ones.

    Growth replaces the arrays, so callers read them through this object
    and never hold one across an :meth:`alloc`.
    """

    def __init__(self, capacity: int = 256):
        for name, dtype, fill in _COLUMNS:
            setattr(self, name, np.full(capacity, fill, dtype=dtype))
        self._free = FreeList(capacity)

    def __len__(self) -> int:
        """Slots in use."""
        return len(self.handle) - len(self._free)

    def alloc(self, n: int) -> np.ndarray:
        """Reserve ``n`` slots (doubling the columns as often as it takes)."""
        while len(self._free) < n:
            old = len(self.handle)
            for name, dtype, fill in _COLUMNS:
                grown = np.full(old, fill, dtype=dtype)
                setattr(self, name, np.concatenate([getattr(self, name), grown]))
            self._free.extend(old, 2 * old)
        return self._free.pop(n)

    def free(self, slots: np.ndarray) -> None:
        """Reset ``slots`` to the free-slot values and recycle them."""
        for name, __, fill in _COLUMNS:
            getattr(self, name)[slots] = fill
        self._free.push(slots)

    def live(self) -> np.ndarray:
        """Slots in use, ascending."""
        return np.flatnonzero(self.handle >= 0)


class EntryView:
    """Read-only window on one slot of the columns.

    What ``HashIndex.find`` / ``entries`` hand to tests and node
    introspection: ``.key .version .updated .dirty .referenced .row``
    read through to the columns on every access (so the view of a slot
    that was dropped shows a free slot, not the entry that was).
    """

    __slots__ = ("_columns", "slot")

    def __init__(self, columns: EntryColumns, slot: int):
        self._columns = columns
        self.slot = slot

    def __getattr__(self, column: str):
        return getattr(self._columns, column)[self.slot].item()

    @property
    def location(self) -> Location:
        return Location(self.handle & 1)

    @property
    def in_dram(self) -> bool:
        return self.location == Location.DRAM

    def __repr__(self) -> str:
        return f"EntryView(key={self.key}, version={self.version}, {self.location.name})"
