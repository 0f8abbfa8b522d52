"""Key partitioning across PS nodes.

Section IV: *"OpenEmbedding identifies the correct PS node by hashing
the entry's id"*. We use a splitmix64-style integer mix so routing is
deterministic across processes and runs (Python's builtin ``hash`` is
salted per process and would break recovery tests), and place the mixed
id by jump consistent hash, so every cluster can grow or shrink by a
node while moving only the keys it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.optimizers import segment_sum
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
    of the scalar version, so ``mix64_array(a)[i] == mix64(int(a[i]))``;
    array arithmetic never warns on that wrap. Returns a fresh array.
    """
    v = np.array(values, dtype=np.uint64)  # a copy the mix runs in place on
    v += np.uint64(0x9E3779B97F4A7C15)
    v ^= v >> np.uint64(30)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> np.uint64(31)
    return v


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

    @staticmethod
    def shard_rows(block: np.ndarray, positions) -> np.ndarray:
        """A shard's rows of a block with one row per distinct key: a
        view for a one-shard plan's ``slice``, else one ``take`` (a
        contiguous row gather, ~2.5x faster than fancy indexing)."""
        if isinstance(positions, slice):
            return block[positions]
        return np.take(block, positions, axis=0)

    def summed(self, grads: np.ndarray) -> np.ndarray:
        """One gradient row per key of ``unique``: a key's first
        occurrence seeds its row and later ones add in occurrence order
        — the float32 sequence every PS sums a push in, stated here
        once."""
        return segment_sum(grads, self.first[self.inverse], self.first)


def summed_per_key(keys, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A push as one row per distinct key, keys ascending.

    A push whose ``keys`` already ascend strictly — every facade push
    and every fold — comes back unchanged (no sort, no copy); any other
    comes back as its one-shard plan's ``unique`` keys and
    :meth:`KeyPlan.summed` rows.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if (keys[1:] > keys[:-1]).all():
        return keys, grads
    plan = HashPartitioner(1).plan(keys)
    return plan.unique, plan.summed(grads)


class HashPartitioner:
    """Stable, elastic key -> node routing for ``num_nodes`` shards: jump
    consistent hash (Lamping and Veach, "A Fast, Minimal Memory,
    Consistent Hash Algorithm", arXiv 1406.2294) over each key's
    ``mix64``.

    Changing the node count remaps only the *minimal* fraction of keys:
    growing ``n -> n+1`` moves ``1/(n+1)`` of the keyspace in
    expectation — and moves it exclusively onto the new node — while
    shrinking ``n -> n-1`` exactly restores the assignment at ``n-1``
    nodes. This is the property that makes live shard migration
    (``repro.core.migration``) cheap, and every node still holds ``1/n``
    of the keys in expectation, as the paper's ``hash % n`` does.

    Routing is a pure function of ``(key, num_nodes)``: no table is
    built and nothing is salted per process, so it is identical across
    processes and runs (required by the recovery and crash-point tests).
    The ``mix64`` comes first: fed a raw key, jump's generator keeps key
    0 on node 0 at every node count.

    Physical nodes are always the contiguous range ``0..num_nodes-1``
    — scale-out adds node ``n``, scale-in removes node ``n-1`` — which
    are exactly the bucket changes jump hash supports and match how the
    server indexes its shard list.
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes

    def with_nodes(self, num_nodes: int) -> "HashPartitioner":
        """The routing over ``num_nodes`` nodes."""
        return HashPartitioner(num_nodes)

    def node_of(self, key: int) -> int:
        """The shard owning ``key``."""
        return int(self.owners(np.array([key], dtype=np.uint64))[0])

    def split(
        self, keys: Sequence[int], mixed=None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Partition ``keys`` by owner, vectorized (``mixed``: as for
        :meth:`owners`).

        Returns ``(per_node_keys, per_node_positions)`` where
        ``per_node_positions[n][j]`` is the index in ``keys`` of
        ``per_node_keys[n][j]`` — used to scatter per-node responses
        back into request order. Both are numpy arrays (uint64 keys,
        intp positions) in request order: one owner mask per node.
        """
        arr = np.asarray(keys, dtype=np.uint64)
        if self.num_nodes == 1:
            return [arr], [np.arange(arr.size, dtype=np.intp)]
        owners = self.owners(arr, mixed)
        positions = [(owners == node).nonzero()[0] for node in range(self.num_nodes)]
        return [arr[sel] for sel in positions], positions

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

    def owners(self, keys, mixed=None) -> np.ndarray:
        """Owning node (``intp``) of every key: each jumps from node 0
        until its next jump lands past the last node, and a round
        touches only the keys still jumping. A jump from node ``b``
        lands on ``b + 1`` or past it, so a key still jumping after
        ``r`` rounds sits on node ``r`` or higher, and ``num_nodes - 1``
        rounds place every key (one at 2 nodes). ``mixed`` is the keys'
        :func:`mix64_array` when the caller holds it; it is not written."""
        state = mix64_array(keys) if mixed is None else mixed
        owners = np.zeros(len(state), dtype=np.intp)
        # ``jump`` carries b + 1 for each key's node b; before the first
        # round every key is on node 0.
        live, jump = None, 1.0
        for rounds_left in range(self.num_nodes - 2, -1, -1):
            state = state * np.uint64(2862933555777941757) + np.uint64(1)
            # The paper's float64 (b + 1) * (2^31 / ((key >> 33) + 1)),
            # compared before its int cast: int(x) < n iff x < n.
            jump = jump * (2.0**31 / ((state >> np.uint64(33)) + np.uint64(1)))
            inside = (jump < self.num_nodes).nonzero()[0]
            live = inside if live is None else live[inside]
            if not rounds_left or not len(live):
                # The keys still jumping sit on node n - 2 or n - 1, so a
                # last jump that stays inside lands on node n - 1.
                owners[live] = self.num_nodes - 1
                break
            owners[live] = jump = np.floor(jump[inside])
            state, jump = state[inside], jump + 1.0
        return owners

    def moved_keys(self, target: "HashPartitioner", keys) -> np.ndarray:
        """The ``uint64`` keys, in input order, whose owner differs under
        ``target`` — "which keys change owner", stated once."""
        keys = np.asarray(keys, dtype=np.uint64)
        return keys[self.owners(keys) != target.owners(keys)]


RING_STATE_FIELD = "ring_state"
"""PMem root field (coordinator pool, node 0) holding the committed ring.

A single :meth:`~repro.pmem.pool.PoolRoot.set` of this field is the
atomic commit point of a migration: the packed value encodes the ring
epoch and ``num_nodes``, all that rebuilds the ring, so recovery after a
mid-migration crash always lands on a consistent pre- or post-migration
ring.
"""

_RING_NODES_BITS = 20


def pack_ring_state(epoch: int, num_nodes: int) -> int:
    """Encode ``(epoch, num_nodes)`` into one root-field word."""
    if epoch < 0:
        raise ConfigError(f"ring epoch must be >= 0, got {epoch}")
    if not 0 <= num_nodes < 1 << _RING_NODES_BITS:
        raise ConfigError(f"ring num_nodes {num_nodes} out of range")
    return (epoch << _RING_NODES_BITS) | num_nodes


def unpack_ring_state(packed: int) -> tuple[int, int]:
    """Decode :func:`pack_ring_state`'s word into ``(epoch, num_nodes)``."""
    return packed >> _RING_NODES_BITS, packed & ((1 << _RING_NODES_BITS) - 1)
