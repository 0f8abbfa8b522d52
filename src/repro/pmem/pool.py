"""A simulated persistent object pool (the PMDK ``pmemobj`` analogue).

The pool is a key -> bytes-like object store with the durability
semantics that matter for checkpoint correctness:

* a **flushed** write is durable: it survives :meth:`PmemPool.crash`;
* an **unflushed** write (``flush=False``) sits in the simulated CPU
  cache until :meth:`PmemPool.drain` and is discarded by a crash;
* the **root** region holds named 8-byte fields (e.g. the *Checkpointed
  Batch ID*) updated with single-word atomicity — a crash never tears
  them, it only decides whether the update landed.

Values are numpy arrays (copied on write so the durable snapshot is
decoupled from the caller's live DRAM buffer) or ``None`` in
metadata-only mode, where only sizes are accounted — used by the
performance benchmarks, which need traffic and versions but not actual
weights.
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


class PmemPool:
    """Persistent object pool backed by a (simulated) PMem device.

    Args:
        capacity_bytes: pool size; allocations beyond it raise
            :class:`OutOfSpaceError`.
        device: device charged for traffic; defaults to a fresh PMem
            device with Table I characteristics.

    The pool tracks used bytes exactly: an object's footprint is its
    payload size (callers pass explicit ``nbytes`` in metadata-only
    mode).
    """

    def __init__(self, capacity_bytes: int, device: MemoryDevice | None = None):
        if capacity_bytes <= 0:
            raise PMemError(f"pool capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.device = device or MemoryDevice(PMEM_SPEC, capacity_bytes)
        self.root = PoolRoot()
        # key -> the stored array, or (metadata-only) its payload size:
        # an array's size is its ``nbytes``, so it is not held twice.
        self._durable: dict[object, np.ndarray | int] = {}
        self._staged: dict[object, np.ndarray | int] = {}
        self._used_bytes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # basic object operations
    # ------------------------------------------------------------------

    def write(
        self,
        key: object,
        value: np.ndarray | None,
        *,
        nbytes: int | None = None,
        flush: bool = True,
    ) -> float:
        """Store ``value`` under ``key``; returns simulated write seconds.

        Args:
            key: object identifier (any hashable).
            value: numpy array to persist (copied), or None in
                metadata-only mode.
            nbytes: explicit payload size; required when ``value`` is
                None, inferred from the array otherwise.
            flush: when False the write is staged in the CPU cache and
                lost on crash until :meth:`drain` is called.

        Raises:
            PoolClosedError: the pool was closed or crashed.
            OutOfSpaceError: capacity would be exceeded.
        """
        self._check_open()
        size = self._payload_size(value, nbytes)
        old_size = self._current_size(key)
        if self._used_bytes - old_size + size > self.capacity_bytes:
            raise OutOfSpaceError(
                f"pool full: used={self._used_bytes}, need={size}, "
                f"capacity={self.capacity_bytes}"
            )
        held = size if value is None else np.array(value, copy=True)
        self._used_bytes += size - old_size
        if flush:
            self._durable[key] = held
            self._staged.pop(key, None)
        else:
            self._staged[key] = held
        return self.device.write(size)

    def read(self, key: object) -> np.ndarray | None:
        """Read the current (staged-over-durable) value of ``key``.

        Returns a copy, so callers cannot mutate pool contents in place.

        Raises:
            KeyError: unknown key.
        """
        self._check_open()
        held = self._lookup(key)
        if isinstance(held, int):
            self.device.read(held)
            return None
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

    def items(self) -> Iterator[tuple[object, np.ndarray | None]]:
        """All live (key, value) pairs; values are NOT copied (scan path)."""
        for key in self.keys():
            held = self._lookup(key)
            yield key, None if isinstance(held, int) else held

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate power loss: staged writes vanish, durable data stays.

        The pool remains usable afterwards (it represents the same
        physical DIMMs after a restart); only the volatile staging layer
        is wiped. Space accounting is recomputed from durable contents.
        """
        self._staged.clear()
        self._used_bytes = sum(map(self._size, self._durable.values()))

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
        return len(set(self._staged) | set(self._durable))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise PoolClosedError("pool is closed")

    @staticmethod
    def _payload_size(value: np.ndarray | None, nbytes: int | None) -> int:
        if value is not None:
            return int(value.nbytes)
        if nbytes is None:
            raise PMemError("metadata-only write requires explicit nbytes")
        if nbytes < 0:
            raise PMemError(f"negative payload size {nbytes}")
        return nbytes

    @staticmethod
    def _size(held: np.ndarray | int) -> int:
        return held if isinstance(held, int) else int(held.nbytes)

    def _current_size(self, key: object) -> int:
        held = self._staged.get(key)
        if held is None:
            held = self._durable.get(key)
        return 0 if held is None else self._size(held)

    def _lookup(self, key: object) -> np.ndarray | int:
        if key in self._staged:
            return self._staged[key]
        if key in self._durable:
            return self._durable[key]
        raise KeyError(key)
