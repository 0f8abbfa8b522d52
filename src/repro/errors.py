"""Exception hierarchy for the OpenEmbedding reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class PMemError(ReproError):
    """Base class for persistent-memory substrate errors."""


class OutOfSpaceError(PMemError):
    """The persistent pool has no room for a requested allocation."""


class ServerError(ReproError):
    """Base class for parameter-server errors."""


class KeyNotFoundError(ServerError, KeyError):
    """A pull referenced a key that does not exist and auto-create is off."""


class ShardRoutingError(ServerError):
    """A request was routed to a node that does not own the key."""


class CheckpointError(ServerError):
    """Checkpointing failed or was invoked in an invalid state."""


class RecoveryError(ServerError):
    """Recovery from persistent state failed."""


class StalenessError(ServerError):
    """A pull was rejected by the bounded-staleness admission check.

    The calling worker's progress has fallen more than the configured
    bound ``k`` behind the slowest *other* admitted worker, so weights
    served now would produce a gradient too stale to fold safely. The
    worker should fast-forward (abandon its stale cursor, re-sync its
    progress) and retry; the error is not retryable as-is because
    resending the identical request carries the identical stale
    progress.

    Attributes:
        worker_id: the rejected worker (``None`` when reconstructed
            from a wire frame without structured fields).
        lag: how many batches behind the admitted frontier the caller
            was at rejection time.
        bound: the configured staleness bound ``k``.
    """

    def __init__(
        self,
        message: str = "pull rejected: worker too far behind the admitted frontier",
        *,
        worker_id: int | None = None,
        lag: int | None = None,
        bound: int | None = None,
    ):
        super().__init__(message)
        self.worker_id = worker_id
        self.lag = lag
        self.bound = bound


class RpcError(ReproError):
    """Base class for RPC transport errors on the simulated wire."""


class NodeDeadError(RpcError):
    """The target PS node has been declared dead by failure detection.

    Distinct from :class:`RpcTimeoutError` on purpose: a timeout means
    "the wire may have eaten the message, retry the same endpoint",
    while this error means "the node's lease expired (or its primary
    replica crashed) — stop retrying, reroute to the promoted backup".
    Clients catching it should consult the
    :class:`~repro.core.failover.FailoverManager` and re-issue the call
    with the *same* ``(worker_id, seq)`` so the dedup window keeps the
    retried push exactly-once across the promotion.

    Attributes:
        node_id: the shard whose primary is dead (``None`` if unknown).
        attempts: RPC attempts made before the declaration, when the
            error was raised by a channel rather than the detector.
    """

    def __init__(
        self,
        message: str = "ps node declared dead",
        *,
        node_id: int | None = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.node_id = node_id
        self.attempts = attempts


class FailoverError(ServerError):
    """Promotion is impossible (e.g. a double fault killed the backup
    too); callers must fall back to checkpoint recovery."""

    def __init__(self, message: str = "failover impossible", *, node_id: int | None = None):
        super().__init__(message)
        self.node_id = node_id


class RpcTimeoutError(RpcError):
    """A call's retry budget was exhausted without a successful reply.

    Attributes:
        attempts: how many attempts were made before giving up.
        spent_seconds: simulated time charged to the call (wire time,
            loss timeouts and backoff) before it was abandoned.
    """

    def __init__(
        self,
        message: str = "rpc call timed out",
        *,
        attempts: int = 0,
        spent_seconds: float = 0.0,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.spent_seconds = spent_seconds


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ClockError(SimulationError):
    """Simulated time was advanced backwards or misused."""
