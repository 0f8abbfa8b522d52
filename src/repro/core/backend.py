"""The formal parameter-server backend protocols.

Every embedding store a trainer can run against — the in-process
:class:`~repro.core.server.OpenEmbeddingServer`, the wire-level
:class:`~repro.network.frontend.RemotePSClient`, and the baselines in
:mod:`repro.baselines` — implements :class:`TrainBackend`. Trainers,
the prefetch pipeline and the simulators accept *only* this protocol,
so any conforming backend is interchangeable; tests assert that
training the same model over different backends yields bit-identical
weights.

The surface is split by role:

* :class:`ReadBackend` — what a *reader* needs: ``pull`` (training-order
  reads that feed the cache), ``lookup`` (snapshot-pinned serving
  reads), and the ``num_entries`` / ``latest_completed_batch`` /
  ``latest_serving_snapshot`` / ``checkpoints_completed``
  introspection properties. The online
  inference tier (:class:`~repro.dlrm.hps.HierarchicalPS`,
  :meth:`~repro.dlrm.serving.InferenceSession.from_backend`) requires
  only this.
* :class:`TrainBackend` — a :class:`ReadBackend` that can also mutate:
  ``push`` / ``maintain`` plus checkpoint control and
  ``state_snapshot``. Trainers require this.

Both protocols are structural (:class:`typing.Protocol`): backends do
not inherit from them, they merely expose the right surface, which
``isinstance(backend, TrainBackend)`` verifies at runtime thanks to
``@runtime_checkable``. :func:`check_backend` validates either role
with a friendlier error.

``maintain`` returns ``list[MaintainResult]`` — one element per shard —
on every backend. Baselines without deferred maintenance return an
empty list (nothing was maintained), and the remote client wires the
per-shard counts back through the Maintain RPC; use
:func:`aggregate_maintain` to collapse any backend's return value into
one summed :class:`~repro.core.cache.MaintainResult`.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.cache import MaintainResult, PullResult
from repro.core.serving_backend import LookupResult

#: Method names every reader must expose (used by conformance tests).
READ_BACKEND_METHODS = (
    "pull",
    "lookup",
)

#: Read-only attributes every reader must expose.
READ_BACKEND_PROPERTIES = (
    "num_entries",
    "latest_completed_batch",
    "latest_serving_snapshot",
    "checkpoints_completed",
)

#: Additional method names a trainable backend must expose.
TRAIN_BACKEND_METHODS = (
    "push",
    "maintain",
    "request_checkpoint",
    "barrier_checkpoint",
    "complete_pending_checkpoints",
    "state_snapshot",
)


@runtime_checkable
class ReadBackend(Protocol):
    """Structural protocol of a read-only embedding backend.

    Two read paths with different contracts:

    * ``pull(keys, b)`` — the *training* read: serves the live (newest)
      weights and feeds the cache's access stream for batch ``b``;
    * ``lookup(keys, snapshot_id)`` — the *serving* read: pinned to a
      Checkpointed Batch ID so concurrent training never tears a row,
      and side-effect-free on cache state. A caller that already holds
      the keys' ``mix64_array`` (the serving tier) passes it as
      ``mixed``; a sharded backend routes with it, others ignore it.
    """

    def pull(self, keys: Sequence[int], batch_id: int) -> PullResult:
        """Gather live weights for ``keys``, in request order."""
        ...

    def lookup(
        self, keys: Sequence[int], snapshot_id: int | None = None, *, mixed=None
    ) -> LookupResult:
        """Snapshot-pinned serving read of ``keys``, in request order."""
        ...

    @property
    def num_entries(self) -> int:
        """Distinct embedding entries stored."""
        ...

    @property
    def latest_completed_batch(self) -> int:
        """Newest batch whose updates fully applied (-1 before training)."""
        ...

    @property
    def latest_serving_snapshot(self) -> int:
        """Newest checkpoint completed by every shard (-1 if none)."""
        ...

    @property
    def checkpoints_completed(self) -> int:
        """Monotone count of completed checkpoints.

        Checkpoint ids are batch ids (not consecutive), so "at most k
        checkpoints stale" can only be measured against this counter.
        """
        ...


@runtime_checkable
class TrainBackend(ReadBackend, Protocol):
    """Structural protocol of a trainable embedding parameter server.

    The synchronous-batch contract (Figure 5):

    1. ``pull(keys, b)`` for every worker of batch ``b`` — never
       reorders the cache;
    2. ``maintain(b)`` once all of batch ``b``'s pulls are in — the
       deferred cache-maintenance round;
    3. ``push(keys, grads, b)`` applies the batch's gradients.

    Checkpoint control (``request_checkpoint`` queues, completion
    follows in later ``maintain`` rounds; ``barrier_checkpoint`` forces
    it) and
    introspection (``state_snapshot``) round out the surface.
    """

    def push(self, keys: Sequence[int], grads: np.ndarray, batch_id: int) -> int:
        """Apply gradients for ``keys``; returns distinct entries updated."""
        ...

    def maintain(self, batch_id: int) -> list[MaintainResult]:
        """Run the deferred maintenance round; one result per shard."""
        ...

    def request_checkpoint(self, batch_id: int | None = None) -> int:
        """Queue a checkpoint of ``batch_id`` (default: newest trained)."""
        ...

    def barrier_checkpoint(self, batch_id: int | None = None) -> int:
        """Checkpoint and synchronously complete (a training barrier)."""
        ...

    def complete_pending_checkpoints(self) -> None:
        """Force every queued checkpoint to complete."""
        ...

    def state_snapshot(self) -> dict[int, np.ndarray]:
        """Live weights of every key.

        Training/debug-only: the result is *not* checkpoint-consistent —
        it reads whatever each shard holds right now, so rows pushed by
        an in-flight batch are visible. Serving and model export must go
        through the snapshot-pinned ``lookup`` path instead (see
        :mod:`repro.core.serving_backend` and
        :func:`repro.dlrm.serving.export_model`).
        """
        ...


def aggregate_maintain(
    results: Iterable[MaintainResult] | MaintainResult,
) -> MaintainResult:
    """Collapse a backend's ``maintain`` return into one summed result.

    Accepts the protocol's ``list[MaintainResult]`` or a bare
    :class:`MaintainResult` (single-shard components such as
    :class:`~repro.core.ps_node.PSNode`), so callers can account
    maintenance work uniformly without caring which backend produced it.
    """
    if isinstance(results, MaintainResult):
        return results
    processed = loads = flushes = evictions = completed = 0
    for result in results:
        processed += result.processed
        loads += result.loads
        flushes += result.flushes
        evictions += result.evictions
        completed += result.checkpoints_completed
    return MaintainResult(
        processed=processed,
        loads=loads,
        flushes=flushes,
        evictions=evictions,
        checkpoints_completed=completed,
    )


_ROLE_SURFACES = {
    "read": (READ_BACKEND_METHODS, READ_BACKEND_PROPERTIES, "ReadBackend"),
    "train": (
        READ_BACKEND_METHODS + TRAIN_BACKEND_METHODS,
        READ_BACKEND_PROPERTIES,
        "TrainBackend",
    ),
}


def check_backend(backend: object, role: str = "train"):
    """Validate ``backend`` against the protocol for ``role``; returns it.

    Args:
        backend: the candidate object.
        role: ``"train"`` (default) checks the full
            :class:`TrainBackend` surface; ``"read"`` checks only the
            :class:`ReadBackend` surface the serving tier needs.

    Raises:
        ValueError: ``role`` is not ``"read"`` or ``"train"``.
        TypeError: the object is missing part of the surface, with the
            missing names spelled out (friendlier than a bare
            ``isinstance`` failure).
    """
    try:
        methods, properties, proto_name = _ROLE_SURFACES[role]
    except KeyError:
        raise ValueError(
            f"unknown backend role {role!r}; choose 'read' or 'train'"
        ) from None
    missing = [
        name
        for name in (*methods, *properties)
        if not hasattr(backend, name)
    ]
    if missing:
        raise TypeError(
            f"{type(backend).__name__} does not implement {proto_name}; "
            f"missing: {', '.join(sorted(missing))}"
        )
    return backend
