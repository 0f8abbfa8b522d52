"""A simulated persistent pool (the PMDK ``pmemobj`` analogue).

The pool holds the two things that must survive a crash:

* the **root** region: named 8-byte fields (e.g. the *Checkpointed
  Batch ID*) updated with single-word atomicity — a crash never tears
  them, it only decides whether the update landed;
* the :class:`EntrySlab`: embedding rows as one contiguous float32
  matrix of fixed-size slots with a free list and a ``(key, batch_id,
  live)`` header per slot, written, read and freed a block of slots at
  a time. A slab write is always flushed (the ``live`` bit is its
  commit point), so a crash keeps every live slot.

Nothing else is stored: every durable row, whatever system wrote it, is
a slab slot, and a checkpoint commits by one root write. The pool owns
the slab so that space accounting, :class:`OutOfSpaceError` and device
charging stay in one place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OutOfSpaceError, PMemError
from repro.simulation.device import MemoryDevice, PMEM_SPEC


class PoolRoot:
    """Named atomic 8-byte fields in the pool's root object.

    Only durable (committed) values are visible after a crash. An update
    is modelled as instantaneously atomic: either the new value is
    durable or the old one remains — never a tear. This matches
    ``PMem.atomicUpdateCheckpointId`` in Algorithm 2 line 25.
    """

    def __init__(self) -> None:
        self._fields: dict[str, int] = {}

    def set(self, name: str, value: int) -> None:
        """Atomically persist ``value`` under ``name``."""
        self._fields[name] = int(value)

    def get(self, name: str, default: int | None = None) -> int:
        """Read the durable value of ``name``.

        Raises:
            KeyError: when the field was never set and no default given.
        """
        if name in self._fields:
            return self._fields[name]
        if default is None:
            raise KeyError(name)
        return default

    def fields(self) -> dict[str, int]:
        """Snapshot of all durable root fields."""
        return dict(self._fields)


INITIAL_SLOTS = 256
"""Starting slot count of a slab; it doubles on demand."""


class EntrySlab:
    """Fixed-size row slots inside a pool (see the module docstring).

    Attributes:
        key, batch, live: the per-slot header columns. A slot whose
            ``live`` bit is clear is free space whatever else it holds.
        data: the ``(capacity, width)`` float32 payload matrix.

    Every slot costs ``slot_bytes`` of pool space and one device
    operation of ``slot_bytes`` per write or read.
    """

    def __init__(self, pool: "PmemPool", slot_bytes: int):
        self.pool = pool
        self.slot_bytes = slot_bytes
        self.width = slot_bytes // 4
        self._row = np.dtype((np.void, 4 * self.width))
        self.key = np.zeros(INITIAL_SLOTS, dtype=np.uint64)
        self.batch = np.zeros(INITIAL_SLOTS, dtype=np.int64)
        self.live = np.zeros(INITIAL_SLOTS, dtype=bool)
        self.data = np.zeros((INITIAL_SLOTS, self.width), dtype=np.float32)
        # A stack of free slot numbers (top at ``_nfree - 1``); a fresh
        # slab pops its low slots first. A write sorts what it pops, so
        # its block lands in ascending slot order.
        self._free = np.arange(INITIAL_SLOTS - 1, -1, -1, dtype=np.intp)
        self._nfree = INITIAL_SLOTS

    @property
    def capacity(self) -> int:
        return len(self.live)

    @property
    def free_rows(self) -> int:
        """Allocated-but-unused slots (what a put can take without growing)."""
        return self._nfree

    @property
    def rows(self) -> int:
        """Live slots."""
        return len(self.live) - self._nfree

    def write(self, keys: np.ndarray, batches: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Persist one new slot per ``(key, batch)``; returns the slots,
        ascending (``rows[i]`` lands in the ``i``-th lowest).

        All or nothing: raises before anything changes.

        Raises:
            OutOfSpaceError: the pool cannot hold ``len(keys)`` more slots.
            PMemError: ``rows`` is not ``(len(keys), width)``.
        """
        n = len(keys)
        self._check_rows(n, rows)
        self.pool.require_free(n * self.slot_bytes)
        if n > self._nfree:
            self._grow(n - self._nfree)
        self._nfree -= n
        slots = np.sort(self._free[self._nfree : self._nfree + n])
        self.key[slots] = keys
        self.batch[slots] = batches
        self._store(slots, rows)
        self.live[slots] = True
        return slots

    def rewrite(self, slots: np.ndarray, batches: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite live ``slots`` in place: new batch ids, new payload."""
        self._check_rows(len(slots), rows)
        self.batch[slots] = batches
        self._store(slots, rows)

    def read(self, slots: np.ndarray) -> np.ndarray:
        """Copy of the payload of ``slots``."""
        self.pool.device.read(self.slot_bytes, ops=len(slots))
        return np.take(self.data, slots, axis=0)

    def free(self, slots: np.ndarray) -> None:
        """Clear the ``live`` bit of ``slots`` and reclaim their space."""
        n = len(slots)
        self.live[slots] = False
        self._free[self._nfree : self._nfree + n] = slots
        self._nfree += n

    def _check_rows(self, n: int, rows: np.ndarray) -> None:
        if rows.shape != (n, self.width):
            raise PMemError(
                f"rows of shape {rows.shape} do not fill {n} slots of "
                f"{self.width} floats"
            )

    def _store(self, slots: np.ndarray, rows: np.ndarray) -> None:
        # Each row moves as one ``slot_bytes`` element, not ``width``
        # floats. The byte view must see float32 rows: a float64 block
        # is cast here, never reinterpreted.
        self.data.view(self._row)[slots] = np.ascontiguousarray(rows, np.float32).view(self._row)
        self.pool.device.write(self.slot_bytes, ops=len(slots))

    def _grow(self, shortfall: int) -> None:
        old = self.capacity
        capacity = old * 2
        while capacity - old < shortfall:
            capacity *= 2

        def grown(column: np.ndarray) -> np.ndarray:
            out = np.zeros((capacity,) + column.shape[1:], dtype=column.dtype)
            out[:old] = column
            return out

        self.key, self.batch, self.live, self.data = map(
            grown, (self.key, self.batch, self.live, self.data)
        )
        # New (high) slots go under the existing free ones.
        free = np.empty(capacity, dtype=np.intp)
        added = capacity - old
        free[:added] = np.arange(capacity - 1, old - 1, -1)
        free[added : added + self._nfree] = self._free[: self._nfree]
        self._free = free
        self._nfree += added


class PmemPool:
    """Persistent pool backed by a (simulated) PMem device.

    Args:
        capacity_bytes: pool size; allocations beyond it raise
            :class:`OutOfSpaceError`.
        device: device charged for traffic; defaults to a fresh PMem
            device with Table I characteristics.

    A live slab slot occupies the slab's slot size; that is all the
    space the pool accounts.
    """

    def __init__(self, capacity_bytes: int, device: MemoryDevice | None = None):
        if capacity_bytes <= 0:
            raise PMemError(f"pool capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.device = device or MemoryDevice(PMEM_SPEC, capacity_bytes)
        self.root = PoolRoot()
        self._slab: EntrySlab | None = None

    def slab(self, slot_bytes: int) -> EntrySlab:
        """The pool's row slab, created on first use.

        Raises:
            PMemError: the pool already holds a slab of another slot
                size (rows written by a node with another dimension or
                optimizer).
        """
        if self._slab is None:
            self._slab = EntrySlab(self, slot_bytes)
        elif self._slab.slot_bytes != slot_bytes:
            raise PMemError(
                f"pool holds rows of {self._slab.slot_bytes} bytes, "
                f"asked for {slot_bytes}"
            )
        return self._slab

    def crash(self) -> None:
        """Simulate power loss: the pool keeps everything.

        Every slab write is flushed and every root update atomic, so a
        crash loses no pool state; it represents the same physical DIMMs
        after a restart. What a crash *does* lose is the writer's DRAM,
        which is the caller's to drop.
        """

    @property
    def used_bytes(self) -> int:
        """Bytes held by live slab slots."""
        return 0 if self._slab is None else self._slab.rows * self._slab.slot_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def __len__(self) -> int:
        """Live slab slots."""
        return 0 if self._slab is None else self._slab.rows

    def require_free(self, size: int) -> None:
        """Raise unless ``size`` more bytes fit.

        Raises:
            OutOfSpaceError: capacity would be exceeded.
        """
        if self.used_bytes + size > self.capacity_bytes:
            raise OutOfSpaceError(
                f"pool full: used={self.used_bytes}, need={size}, "
                f"capacity={self.capacity_bytes}"
            )
