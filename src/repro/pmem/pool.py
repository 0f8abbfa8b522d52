"""A simulated persistent object pool (the PMDK ``pmemobj`` analogue).

The pool is a key -> bytes-like object store with the durability
semantics that matter for checkpoint correctness:

* a **flushed** write is durable: it survives :meth:`PmemPool.crash`;
* an **unflushed** write (``flush=False``) sits in the simulated CPU
  cache until :meth:`PmemPool.drain` and is discarded by a crash;
* the **root** region holds named 8-byte fields (e.g. the *Checkpointed
  Batch ID*) updated with single-word atomicity — a crash never tears
  them, it only decides whether the update landed.

Values are numpy arrays, copied on write so the durable snapshot is
decoupled from the caller's live DRAM buffer; an object occupies its
``nbytes``.

Embedding rows do not go through the object dict. They live in the
pool's :class:`EntrySlab`: one contiguous float32 matrix of fixed-size
slots with a free list and a ``(key, batch_id, live)`` header per slot,
written, read and freed a block of slots at a time. A slab write is
always flushed (the ``live`` bit is its commit point), so a crash keeps
every live slot; the pool owns the slab so that space accounting,
:class:`OutOfSpaceError` and device charging stay in one place.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import OutOfSpaceError, PMemError, PoolClosedError
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
    operation of ``slot_bytes`` per write or read, exactly what one
    pool object of that size costs.
    """

    def __init__(self, pool: "PmemPool", slot_bytes: int):
        self.pool = pool
        self.slot_bytes = slot_bytes
        self.width = slot_bytes // 4
        self.key = np.zeros(INITIAL_SLOTS, dtype=np.uint64)
        self.batch = np.zeros(INITIAL_SLOTS, dtype=np.int64)
        self.live = np.zeros(INITIAL_SLOTS, dtype=bool)
        self.data = np.zeros((INITIAL_SLOTS, self.width), dtype=np.float32)
        # A stack of free slot numbers (top at ``_nfree - 1``); popping
        # from the end hands out low slots first.
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
        """Persist one new slot per ``(key, batch)``; returns the slots.

        All or nothing: raises before anything changes.

        Raises:
            PoolClosedError: the pool was closed.
            OutOfSpaceError: the pool cannot hold ``len(keys)`` more slots.
            PMemError: ``rows`` is not ``(len(keys), width)``.
        """
        n = len(keys)
        self._check_rows(n, rows)
        self.pool._reserve(n * self.slot_bytes)
        if n > self._nfree:
            self._grow(n - self._nfree)
        self._nfree -= n
        slots = self._free[self._nfree : self._nfree + n].copy()
        self.key[slots] = keys
        self.batch[slots] = batches
        self._store(slots, rows)
        self.live[slots] = True
        return slots

    def rewrite(self, slots: np.ndarray, batches: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite live ``slots`` in place: new batch ids, new payload."""
        self._check_rows(len(slots), rows)
        self.pool._check_open()
        self.batch[slots] = batches
        self._store(slots, rows)

    def read(self, slots: np.ndarray) -> np.ndarray:
        """Copy of the payload of ``slots``."""
        self.pool._check_open()
        self.pool.device.read(self.slot_bytes, ops=len(slots))
        return np.take(self.data, slots, axis=0)

    def free(self, slots: np.ndarray) -> None:
        """Clear the ``live`` bit of ``slots`` and reclaim their space."""
        n = len(slots)
        self.pool._reserve(0, replacing=n * self.slot_bytes)
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
        self.data[slots] = rows
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
    """Persistent object pool backed by a (simulated) PMem device.

    Args:
        capacity_bytes: pool size; allocations beyond it raise
            :class:`OutOfSpaceError`.
        device: device charged for traffic; defaults to a fresh PMem
            device with Table I characteristics.

    The pool tracks used bytes exactly: an object's footprint is its
    array's ``nbytes``, a live slab slot's is the slab's slot size.
    """

    def __init__(self, capacity_bytes: int, device: MemoryDevice | None = None):
        if capacity_bytes <= 0:
            raise PMemError(f"pool capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.device = device or MemoryDevice(PMEM_SPEC, capacity_bytes)
        self.root = PoolRoot()
        self._durable: dict[object, np.ndarray] = {}
        self._staged: dict[object, np.ndarray] = {}
        self._slab: EntrySlab | None = None
        self._used_bytes = 0
        self._closed = False

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

    # ------------------------------------------------------------------
    # basic object operations
    # ------------------------------------------------------------------

    def write(self, key: object, value: np.ndarray, *, flush: bool = True) -> float:
        """Store ``value`` under ``key``; returns simulated write seconds.

        Args:
            key: object identifier (any hashable).
            value: numpy array to persist (copied).
            flush: when False the write is staged in the CPU cache and
                lost on crash until :meth:`drain` is called.

        Raises:
            PoolClosedError: the pool was closed or crashed.
            OutOfSpaceError: capacity would be exceeded.
        """
        size = value.nbytes
        self._reserve(size, replacing=self._current_size(key))
        held = np.array(value, copy=True)
        if flush:
            self._durable[key] = held
            self._staged.pop(key, None)
        else:
            self._staged[key] = held
        return self.device.write(size)

    def read(self, key: object) -> np.ndarray:
        """Read the current (staged-over-durable) value of ``key``.

        Returns a copy, so callers cannot mutate pool contents in place.

        Raises:
            KeyError: unknown key.
        """
        self._check_open()
        held = self._lookup(key)
        self.device.read(held.nbytes)
        return np.array(held, copy=True)

    def free(self, key: object) -> None:
        """Remove ``key`` from the pool and reclaim its space."""
        self._check_open()
        if key not in self._durable and key not in self._staged:
            raise KeyError(key)
        self._used_bytes -= self._current_size(key)
        self._durable.pop(key, None)
        self._staged.pop(key, None)

    def drain(self) -> None:
        """Persist all staged writes (the ``sfence`` analogue)."""
        self._check_open()
        self._durable.update(self._staged)
        self._staged.clear()

    def __contains__(self, key: object) -> bool:
        return key in self._staged or key in self._durable

    def keys(self) -> Iterator[object]:
        """All live keys (staged and durable)."""
        seen = set(self._staged)
        yield from self._staged
        for key in self._durable:
            if key not in seen:
                yield key

    def items(self) -> Iterator[tuple[object, np.ndarray]]:
        """All live (key, value) pairs; values are NOT copied (scan path)."""
        for key in self.keys():
            yield key, self._lookup(key)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate power loss: staged writes vanish, durable data stays.

        The pool remains usable afterwards (it represents the same
        physical DIMMs after a restart); only the volatile staging layer
        is wiped. Space accounting is recomputed from durable contents
        (slab slots are never staged, so every live one stays).
        """
        self._staged.clear()
        self._used_bytes = sum(held.nbytes for held in self._durable.values())
        if self._slab is not None:
            self._used_bytes += self._slab.rows * self._slab.slot_bytes

    def close(self) -> None:
        """Cleanly close the pool (drains staged writes first)."""
        if not self._closed:
            self.drain()
            self._closed = True

    def reopen(self) -> None:
        """Reopen a cleanly closed pool."""
        self._closed = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated (staged + durable)."""
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    def durable_keys(self) -> list[object]:
        """Keys whose current value would survive a crash right now."""
        return [key for key in self._durable if key not in self._staged]

    def __len__(self) -> int:
        """Objects plus live slab slots."""
        slots = 0 if self._slab is None else self._slab.rows
        return len(set(self._staged) | set(self._durable)) + slots

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise PoolClosedError("pool is closed")

    def require_free(self, size: int) -> None:
        """Raise unless the pool is open and ``size`` more bytes fit.

        Raises:
            PoolClosedError: the pool was closed or crashed.
            OutOfSpaceError: capacity would be exceeded.
        """
        self._check_open()
        if self._used_bytes + size > self.capacity_bytes:
            raise OutOfSpaceError(
                f"pool full: used={self._used_bytes}, need={size}, "
                f"capacity={self.capacity_bytes}"
            )

    def _reserve(self, size: int, replacing: int = 0) -> None:
        """Account ``size`` new bytes in place of ``replacing`` old ones."""
        self.require_free(size - replacing)
        self._used_bytes += size - replacing

    def _current_size(self, key: object) -> int:
        held = self._staged.get(key)
        if held is None:
            held = self._durable.get(key)
        return 0 if held is None else held.nbytes

    def _lookup(self, key: object) -> np.ndarray:
        if key in self._staged:
            return self._staged[key]
        if key in self._durable:
            return self._durable[key]
        raise KeyError(key)
