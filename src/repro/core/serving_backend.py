"""The serving-side read protocol: snapshot-pinned batched lookups.

Training talks to the PS through
:class:`~repro.core.backend.TrainBackend`; *serving* needs far less —
and far stricter reads: the
:class:`~repro.core.backend.ReadBackend` role, whose ``lookup`` this
module describes:

* :class:`LookupResult` — the return of one batched ``lookup``: a dense
  ``(n, dim)`` weight matrix plus the snapshot every row was read at;
* :class:`ReplicaSelector` — round-robin read fan-out across a
  shard's primary + backup replicas.

Consistency contract (the tentpole invariant): every lookup is pinned
to a **Checkpointed Batch ID** — a checkpoint that has durably
completed on every shard. Rows are read with
:meth:`~repro.pmem.space.VersionedEntryStore.read_at_most` against that
barrier, so a train-while-serve cluster can keep pushing gradients and
completing newer checkpoints without a reader ever observing a torn
row (half of batch ``b``, half of batch ``b+1``). Keys created after
the pinned snapshot serve the deterministic key-seeded initializer —
exactly the vector they had (virtually) at snapshot time.

Only *completed* checkpoint ids are valid snapshots: between barriers
the version store is free to recycle intermediate versions, so pinning
to an arbitrary batch id could silently read an older row. Backends
enforce ``snapshot_id <= latest_serving_snapshot`` and the serving tier
only ever pins to values it observed from ``latest_serving_snapshot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LookupResult:
    """One batched serving read; also the reply to a ``LookupRequest``
    as it crosses the wire (``network/messages.py`` registers it as a
    kind).

    Attributes:
        weights: ``(n, dim)`` float32 matrix, one row per requested key,
            in request order. A backend's ``lookup`` returns fresh rows
            (the cluster places its shards' replies into a new matrix);
            a shard reply decoded off the wire holds a read-only view
            of its frame.
        snapshot_id: the Checkpointed Batch ID the read was pinned to.
            A backend pins every row of a read to it.
        hits: rows served from a durable version at or below the
            snapshot.
        cold: rows whose key had no durable version at the snapshot
            (created later, or never created) — served the
            deterministic key-seeded initializer.
        row_snapshots: ``(n,)`` int64 array of the snapshot each row
            was actually read at, filled only by the hierarchical tier
            (:class:`~repro.dlrm.hps.HierarchicalPS`), whose cached rows
            may come from an older, still staleness-bounded snapshot;
            None from a backend. It is no wire field.
    """

    weights: np.ndarray
    snapshot_id: int
    hits: int = 0
    cold: int = 0
    row_snapshots: np.ndarray | None = None


@dataclass
class ReplicaSelector:
    """Pick which replica of a shard serves the next read.

    PR-5's :class:`~repro.core.replication.ReplicatedPSNode` keeps the
    backup bitwise identical to the primary, so *reads* (which never
    mutate) can fan out across both — the paper's hot-standby doubles as
    a serving replica for free. The selector is a deterministic
    round-robin: each shard keeps its own turn counter and alternates
    primary / backup per read.

    ``replica_count(shard)`` asks the shard how many live replicas it
    has (1 for a plain or degraded node); the turn is always taken
    modulo that count, so a failover mid-stream transparently collapses
    the fan-out back onto the surviving replica.
    """

    _turns: dict[int, int] = field(default_factory=dict)

    @staticmethod
    def replica_count(shard) -> int:
        """Live replicas of ``shard`` (1 unless a healthy replicated pair)."""
        backup = getattr(shard, "backup", None)
        return 2 if backup is not None else 1

    def pick(self, node_id: int, replicas: int) -> int:
        """The replica index (0 = primary) for the next read on a shard."""
        if replicas <= 1:
            return 0
        turn = self._turns.get(node_id, 0)
        self._turns[node_id] = turn + 1
        return turn % replicas
