"""Key partitioning across PS nodes.

Section IV: *"OpenEmbedding identifies the correct PS node by hashing
the entry's id"*. We use a splitmix64-style integer mix so routing is
deterministic across processes and runs (Python's builtin ``hash`` is
salted per process and would break recovery tests).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finalizer: a fast, well-distributed 64-bit mix."""
    value = int(value)  # accept numpy scalars without overflow warnings
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array.

    uint64 arithmetic wraps modulo 2^64, which is exactly the ``& MASK``
    of the scalar version, so ``mix64_array(a)[i] == mix64(int(a[i]))``.
    """
    v = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        v = v + np.uint64(0x9E3779B97F4A7C15)
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


@dataclass(frozen=True, eq=False)
class KeyPlan:
    """A key array routed once — what a pull and the matching push share
    (built by :meth:`HashPartitioner.plan`).

    ``unique`` holds the distinct keys ascending and ``inverse[i]`` the
    index in ``unique`` of position ``i``'s key, so ``unique[inverse]``
    is the request, flattened; ``first[j]`` is the first position that
    holds ``unique[j]``. ``shards`` has one ``(shard, positions, keys)``
    triple per shard owning any of the keys: ``positions`` index
    ``unique`` ascending and ``keys = unique[positions]``. ``shape`` is
    the shape of the key array the plan was built from, and
    ``partitioner`` the routing it was split under.
    """

    unique: np.ndarray
    inverse: np.ndarray
    first: np.ndarray
    shards: tuple
    shape: tuple
    partitioner: "HashPartitioner"

    def __len__(self) -> int:
        """Positions in the request (duplicates included)."""
        return len(self.inverse)


class HashPartitioner:
    """Stable key -> node routing for ``num_nodes`` shards."""

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes

    def node_of(self, key: int) -> int:
        """The shard owning ``key``."""
        if self.num_nodes == 1:
            return 0
        return mix64(key) % self.num_nodes

    def split(
        self, keys: Sequence[int]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Partition ``keys`` by owner, vectorized.

        Returns ``(per_node_keys, per_node_positions)`` where
        ``per_node_positions[n][j]`` is the index in ``keys`` of
        ``per_node_keys[n][j]`` — used to scatter per-node responses
        back into request order. Both are numpy arrays (uint64 keys,
        intp positions); the stable owner sort preserves request order
        within each node, matching the old append-in-scan-order lists.
        """
        arr = np.asarray(keys, dtype=np.uint64)
        n = arr.size
        if self.num_nodes == 1:
            return [arr], [np.arange(n, dtype=np.intp)]
        owners = self.owners(arr)
        order = np.argsort(owners, kind="stable").astype(np.intp, copy=False)
        counts = np.bincount(owners, minlength=self.num_nodes)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        per_node_keys: list[np.ndarray] = []
        per_node_positions: list[np.ndarray] = []
        for node in range(self.num_nodes):
            sel = order[bounds[node] : bounds[node + 1]]
            per_node_keys.append(arr[sel])
            per_node_positions.append(sel)
        return per_node_keys, per_node_positions

    def plan(self, keys) -> KeyPlan:
        """Route ``keys`` (any shape) once: one unstable argsort finds
        the distinct keys, one owner pass splits them by shard.

        A :class:`KeyPlan` this partitioner built is returned as it is;
        one built under other routing (a reshard committed between a
        pull and its push) keeps its keys and is split again here.
        """
        if isinstance(keys, KeyPlan):
            if keys.partitioner is self:
                return keys
            unique, inverse, first, shape = keys.unique, keys.inverse, keys.first, keys.shape
        else:
            keys = np.asarray(keys, dtype=np.uint64)
            shape, flat = keys.shape, keys.reshape(-1)
            n = len(flat)
            order = np.argsort(flat)
            ordered = flat[order]
            head = np.empty(n, dtype=bool)
            head[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
            unique = ordered[head]
            inverse = np.empty(n, dtype=np.intp)
            inverse[order] = np.cumsum(head) - 1
            # The sort is unstable: the first position is the smallest.
            first = np.full(len(unique), n, dtype=np.intp)
            np.minimum.at(first, inverse, np.arange(n))
        if self.num_nodes == 1:
            shards = ((0, slice(None), unique),) if len(unique) else ()
        else:
            owners = self.owners(unique)
            per_node = (np.flatnonzero(owners == node) for node in range(self.num_nodes))
            shards = tuple(
                (node, positions, unique[positions])
                for node, positions in enumerate(per_node)
                if len(positions)
            )
        return KeyPlan(unique, inverse, first, shards, shape, self)

    def owners(self, keys) -> np.ndarray:
        """Owning node of every key (vectorized ``node_of``, ``intp``)."""
        return (mix64_array(keys) % np.uint64(self.num_nodes)).astype(
            np.intp, copy=False
        )

    def moved_keys(self, target: "HashPartitioner", keys) -> np.ndarray:
        """The ``uint64`` keys, in input order, whose owner differs under
        ``target`` — "which keys change owner", stated once."""
        keys = np.asarray(keys, dtype=np.uint64)
        return keys[self.owners(keys) != target.owners(keys)]


DEFAULT_VNODES = 64
"""Virtual nodes per physical PS node (elasticity vs ring-build cost)."""


class ConsistentHashRing(HashPartitioner):
    """Consistent-hash routing with virtual nodes.

    Same ``num_nodes`` / ``node_of`` / ``split`` interface as
    :class:`HashPartitioner`, but changing the node count only remaps
    the *minimal* fraction of keys: growing ``n -> n+1`` moves roughly
    ``1/(n+1)`` of the keyspace — and moves it exclusively onto the new
    node — while shrinking ``n -> n-1`` exactly restores the assignment
    the ring had at ``n-1`` nodes. This is the property that makes live
    shard migration (``repro.core.migration``) cheap.

    Construction is deterministic: vnode ``j`` of node ``i`` sits at
    position ``mix64((i << 32) | j)`` on a 64-bit ring, and a key
    ``k`` is owned by the first vnode clockwise of ``mix64(k)``. No
    process-salted hashing is involved, so routing is identical across
    processes and runs (required by the recovery and crash-point
    tests).

    Physical nodes are always the contiguous range ``0..num_nodes-1``
    — scale-out adds node ``n``, scale-in removes node ``n-1`` — which
    matches how the server indexes its shard list.
    """

    def __init__(self, num_nodes: int, vnodes: int = DEFAULT_VNODES):
        super().__init__(num_nodes)
        if vnodes <= 0:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for node_id in range(num_nodes):
            base = node_id << 32
            for j in range(vnodes):
                points.append((mix64(base | j), node_id))
        # Ties (astronomically unlikely) break deterministically by node id.
        points.sort()
        self._positions = [p for p, __ in points]
        self._owners = [owner for __, owner in points]
        self._positions_arr = np.asarray(self._positions, dtype=np.uint64)
        self._owners_arr = np.asarray(self._owners, dtype=np.intp)

    def node_of(self, key: int) -> int:
        """The shard owning ``key``: first vnode clockwise of ``mix64(key)``."""
        if self.num_nodes == 1:
            return 0
        point = mix64(key)
        idx = bisect.bisect_left(self._positions, point)
        if idx == len(self._positions):
            idx = 0  # wrap past the top of the ring
        return self._owners[idx]

    def owners(self, keys) -> np.ndarray:
        points = mix64_array(keys)
        # searchsorted(side="left") == bisect_left; wrap past the top.
        idx = np.searchsorted(self._positions_arr, points, side="left")
        idx[idx == len(self._positions_arr)] = 0
        return self._owners_arr[idx]

    def with_nodes(self, num_nodes: int) -> "ConsistentHashRing":
        """A ring over ``num_nodes`` nodes with the same vnode count."""
        return ConsistentHashRing(num_nodes, self.vnodes)


RING_STATE_FIELD = "ring_state"
"""PMem root field (coordinator pool, node 0) holding the committed ring.

A single :meth:`~repro.pmem.pool.PoolRoot.set` of this field is the
atomic commit point of a migration: the packed value encodes the ring
epoch plus everything needed to rebuild the partitioner
(``num_nodes``, ``vnodes``), so recovery after a mid-migration crash
always lands on a consistent pre- or post-migration ring.
"""

_RING_EPOCH_SHIFT = 40
_RING_NODES_SHIFT = 20
_RING_FIELD_MASK = (1 << 20) - 1


def pack_ring_state(epoch: int, num_nodes: int, vnodes: int) -> int:
    """Encode ``(epoch, num_nodes, vnodes)`` into one root-field word."""
    for name, value in (("epoch", epoch), ("num_nodes", num_nodes), ("vnodes", vnodes)):
        if not 0 <= value <= _RING_FIELD_MASK and name != "epoch":
            raise ConfigError(f"ring {name} {value} out of range")
    if epoch < 0:
        raise ConfigError(f"ring epoch must be >= 0, got {epoch}")
    return (epoch << _RING_EPOCH_SHIFT) | (num_nodes << _RING_NODES_SHIFT) | vnodes


def unpack_ring_state(packed: int) -> tuple[int, int, int]:
    """Decode :func:`pack_ring_state`'s word into ``(epoch, num_nodes, vnodes)``."""
    epoch = packed >> _RING_EPOCH_SHIFT
    num_nodes = (packed >> _RING_NODES_SHIFT) & _RING_FIELD_MASK
    vnodes = packed & _RING_FIELD_MASK
    return epoch, num_nodes, vnodes


def make_partitioner(
    kind: str, num_nodes: int, vnodes: int = DEFAULT_VNODES
) -> HashPartitioner:
    """Build the partitioner named by ``kind`` (``modulo`` | ``ring``)."""
    if kind == "modulo":
        return HashPartitioner(num_nodes)
    if kind == "ring":
        return ConsistentHashRing(num_nodes, vnodes)
    raise ConfigError(f"unknown partitioner kind {kind!r} (want 'modulo' or 'ring')")
