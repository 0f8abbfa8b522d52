"""One PS node's RPC surface: :class:`PSNodeService`.

Wraps a :class:`~repro.core.ps_node.PSNode` (or a replicated pair)
behind an :class:`~repro.network.rpc.RpcServer`: one handler per wire
message kind, each opening a ``ps.*`` span parented to the requesting
client's attempt.

Mutating requests are not idempotent on the wire, so each kind keeps a
bounded replay window: pushes and migration writes by their
``(worker_id, seq)`` / ``(source, seq)`` header, checkpoint requests and
maintenance rounds by batch id. A retried frame whose first copy
already applied is answered from the window, never re-applied — which is
what makes retries and duplicates *semantics-free* (trained weights are
bit-identical to a clean wire).

The control plane arrives here too, sent by the client's ``_shard_*``
hooks: ``Migrate`` frames carry a reshard's entries, ``Heartbeat`` and
``Promote`` frames a failover's probes and promotions. Handlers only
answer; background re-replication is ticked by the failover manager.
"""

from __future__ import annotations

from repro.config import DEFAULT_DEDUP_WINDOW
from repro.core.aggregators import ReplayWindow
from repro.core.ps_node import PSNode
from repro.core.replication import ReplicatedPSNode
from repro.errors import ServerError
from repro.network.messages import (
    CheckpointRequest,
    HeartbeatRequest,
    LookupRequest,
    LookupResponse,
    MaintainRequest,
    MaintainResponse,
    MigrateRequest,
    MigrateResponse,
    PromoteRequest,
    PullRequest,
    PullResponse,
    PushRequest,
    StatusResponse,
    mirror,
)
from repro.network.rpc import RpcServer, Unresponsive
from repro.obs.tracer import NULL_TRACER, Tracer


class PSNodeService:
    """One PS node's RPC surface.

    A retried push among the last :data:`DEFAULT_DEDUP_WINDOW` pushes
    is suppressed — at-most-once gradient application; its original
    reply is returned verbatim.

    Args:
        node: the wrapped shard.
        tracer: span sink; every handler invocation becomes a
            ``ps.pull`` / ``ps.push`` / ``ps.maintain`` /
            ``ps.checkpoint`` span carrying its request counts.
    """

    def __init__(self, node: PSNode, tracer: Tracer | None = None):
        self.node = node
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dup_suppressed = 0
        self._push_replies = ReplayWindow(DEFAULT_DEDUP_WINDOW)  # (worker_id, seq)
        self._maintain_replies = ReplayWindow(DEFAULT_DEDUP_WINDOW)  # batch id
        self._checkpoint_replies = ReplayWindow(DEFAULT_DEDUP_WINDOW)  # batch id
        self._migrate_replies = ReplayWindow(DEFAULT_DEDUP_WINDOW)  # (source, seq)
        self.server = RpcServer()
        self.server.register(PullRequest.TYPE, self._handle_pull)
        self.server.register(PushRequest.TYPE, self._handle_push)
        self.server.register(CheckpointRequest.TYPE, self._handle_checkpoint)
        self.server.register(MaintainRequest.TYPE, self._handle_maintain)
        self.server.register(MigrateRequest.TYPE, self._handle_migrate)
        self.server.register(HeartbeatRequest.TYPE, self._handle_heartbeat)
        self.server.register(PromoteRequest.TYPE, self._handle_promote)
        self.server.register(LookupRequest.TYPE, self._handle_lookup)

    def _span(self, name: str, track: str = "main", **attrs):
        """Open a handler span parented to the requesting client.

        When the dispatched frame carried a wire
        :class:`~repro.network.messages.TraceContext`, the span is
        stamped with ``trace_id``/``parent_span_id`` so
        :mod:`repro.obs.merge` can flow-link it back to the exact
        client attempt that caused it.
        """
        context = self.server.current_context
        if context is not None:
            attrs["trace_id"] = context.trace_id
            attrs["parent_span_id"] = context.parent_span_id
        return self.tracer.span(name, track=track, **attrs)

    def _replayed(self, window: ReplayWindow, key, span):
        """The remembered reply of a request that already executed,
        counted as one suppressed duplicate; ``None`` when the request
        is new (or carries no identity, ``key is None``)."""
        cached = window.get(key) if key is not None else None
        if cached is not None:
            self.dup_suppressed += 1
            self.node.metrics.dup_suppressed += 1
            span.set(dup_suppressed=True)
        return cached

    def _check_alive(self) -> None:
        """A dead primary answers nothing, not an error frame.

        When the wrapped shard is a :class:`ReplicatedPSNode` whose
        primary was killed, every data-plane handler raises
        :class:`~repro.network.rpc.Unresponsive` — the dispatcher drops
        the request silently, so from the client's side the node looks
        exactly like a vanished machine: the attempt times out, the
        retry ladder runs dry, and only the failure detector (via the
        lease table) can say *why*.
        """
        if isinstance(self.node, ReplicatedPSNode) and not self.node.primary_alive:
            raise Unresponsive(f"node {self.node.node_id} primary is dead")

    def _handle_heartbeat(self, request: HeartbeatRequest) -> StatusResponse:
        """Answer a lease-renewal probe (silence when the primary died).

        The reply carries the node's newest completed batch so the
        detector doubles as a liveness *and* progress probe. A probe
        changes nothing: the heartbeat round that sent it advances a
        promoted node's re-replication, once, through the facade.
        """
        self._check_alive()
        return self._progress_reply()

    def _progress_reply(self) -> StatusResponse:
        """OK, carrying the node's newest completed batch."""
        return StatusResponse(
            code=StatusResponse.OK, value=self.node.latest_completed_batch
        )

    def _handle_promote(self, request: PromoteRequest) -> StatusResponse:
        """Client-driven replica promotion; idempotent on a live primary.

        A client whose lease on this node expired asks the replica pair
        to fail over. If the primary is in fact alive (a false positive:
        the probe frames were dropped, not the node), the request is an
        acknowledged no-op — promotion must be safe to request twice or
        on mere suspicion. A genuinely dead primary hands the shard to
        its synchronously-maintained backup; with no backup standing
        (double fault) a typed :class:`~repro.errors.FailoverError`
        travels back as ``ERR_FAILOVER`` and the client falls through to
        checkpoint recovery.
        """
        if not isinstance(self.node, ReplicatedPSNode):
            raise ServerError(
                f"node {self.node.node_id} is unreplicated; promotion "
                "requires replicas=2"
            )
        with self._span(
            "ps.promote", track="failover", node=self.node.node_id
        ) as span:
            if self.node.primary_alive:
                span.set(noop=True)
                return self._progress_reply()
            self.node.failover()
            return self._progress_reply()

    def _handle_pull(self, request: PullRequest) -> PullResponse:
        self._check_alive()
        with self._span(
            "ps.pull", node=self.node.node_id, keys=len(request.keys)
        ) as span:
            # The decoded key array goes straight through: the cache
            # normalizes it once, instead of a per-key int() loop here.
            # worker_id/progress feed the bounded-staleness admission
            # check; -1 on the wire means anonymous (no admission).
            worker_id = int(request.worker_id)
            result = self.node.pull(
                request.keys,
                int(request.batch_id),
                worker_id=worker_id if worker_id >= 0 else None,
                progress=int(request.progress),
            )
            span.set(hits=result.hits, misses=result.misses, created=result.created)
            return mirror(PullResponse, result)

    def _handle_lookup(self, request: LookupRequest) -> LookupResponse:
        """Serve a snapshot-pinned batched read (the inference path).

        Lookups are pure reads — idempotent by construction, so unlike
        pushes they carry no dedup identity and need no replay cache: a
        retried frame reads the same snapshot again. A dead primary
        answers with silence (the failover machinery reroutes the
        reader); a ``-1`` request pin resolves to the shard's newest
        completed checkpoint, echoed back in the response.
        """
        self._check_alive()
        with self._span(
            "ps.lookup",
            track="serving",
            node=self.node.node_id,
            keys=len(request.keys),
        ) as span:
            snapshot = int(request.snapshot_id)
            pin = None if snapshot < 0 else snapshot
            if isinstance(self.node, ReplicatedPSNode):
                result = self.node.lookup(
                    request.keys, pin, replica=int(request.replica)
                )
            else:
                result = self.node.lookup(request.keys, pin)
            span.set(
                snapshot=result.snapshot_id, hits=result.hits, cold=result.cold
            )
            return mirror(LookupResponse, result)

    def _handle_push(self, request: PushRequest) -> StatusResponse:
        self._check_alive()
        with self._span(
            "ps.push", node=self.node.node_id, keys=len(request.keys)
        ) as span:
            dedup_key = request.dedup_key
            cached = self._replayed(self._push_replies, dedup_key, span)
            if cached is not None:
                return cached
            # Keys and grads flow in as zero-copy decode views; the
            # update path aggregates into fresh arrays, never mutating
            # the (read-only) request payload.
            updated = self.node.push(
                request.keys,
                request.grads,
                int(request.batch_id),
                worker_id=int(request.worker_id),
                seq=int(request.seq),
            )
            span.set(updated=updated)
            response = StatusResponse(code=StatusResponse.OK, value=updated)
            if dedup_key is not None:
                self._push_replies.remember(dedup_key, response)
            return response

    def _handle_checkpoint(self, request: CheckpointRequest) -> StatusResponse:
        """Queue a batch-aware checkpoint; idempotent per batch id.

        ``request_checkpoint`` rejects re-queuing the same batch, so a
        duplicated or retried request frame replays the cached OK
        instead of surfacing a spurious ``CheckpointError`` to a client
        whose first copy already landed.
        """
        batch_id = int(request.batch_id)
        self._check_alive()
        with self._span(
            "ps.checkpoint", node=self.node.node_id, batch=batch_id
        ) as span:
            cached = self._replayed(self._checkpoint_replies, batch_id, span)
            if cached is not None:
                return cached
            self.node.request_checkpoint(batch_id)
            return self._checkpoint_replies.remember(
                batch_id, StatusResponse(code=StatusResponse.OK, value=batch_id)
            )

    def _handle_maintain(self, request: MaintainRequest) -> MaintainResponse:
        """Run the deferred maintenance round for one batch.

        Maintenance is state-idempotent — a retried trigger (first reply
        lost on the wire) pops an already-drained access queue and does
        no work — but its *counters* are not: the retry would report
        zeros. So the last few rounds' replies are cached per batch id
        and replayed when a re-trigger finds nothing to do, keeping the
        client's maintenance accounting exact under retries.
        """
        batch_id = int(request.batch_id)
        self._check_alive()
        with self._span(
            "ps.maintain", node=self.node.node_id, batch=batch_id
        ) as span:
            result = self.node.maintain(batch_id)
            span.set(processed=result.processed, flushes=result.flushes)
            if result.processed == 0:
                cached = self._replayed(self._maintain_replies, batch_id, span)
                if cached is not None:
                    return cached
        return self._maintain_replies.remember(
            batch_id, mirror(MaintainResponse, result)
        )

    def _handle_migrate(self, request: MigrateRequest):
        """One live-migration op against this shard.

        ``EXPORT`` is read-only and replays harmlessly. ``PUT`` and
        ``DELETE`` mutate ownership, so — exactly like pushes — they
        carry a ``(source, seq)`` identity whose cached reply is
        replayed when a retried frame arrives after the first copy
        already applied. (Both ops are *also* state-idempotent at the
        node level; the dedup cache additionally keeps the coordinator's
        moved-key accounting exact under retries.)
        """
        self._check_alive()
        with self._span(
            "ps.migrate", track="migration", node=self.node.node_id, op=request.op
        ) as span:
            if request.op == MigrateRequest.OP_EXPORT:
                block = self.node.export_entries(request.keys)
                span.set(keys=len(block))
                return MigrateResponse(width=block.rows.shape[1], entries=block)
            dedup_key = request.dedup_key
            cached = self._replayed(self._migrate_replies, dedup_key, span)
            if cached is not None:
                return cached
            if request.op == MigrateRequest.OP_PUT:
                count = self.node.ingest_entries(request.entries)
            elif request.op == MigrateRequest.OP_DELETE:
                count = self.node.drop_keys(request.keys)
            else:
                raise ServerError(f"unknown migrate op {request.op}")
            span.set(keys=count)
            response = StatusResponse(code=StatusResponse.OK, value=count)
            if dedup_key is not None:
                self._migrate_replies.remember(dedup_key, response)
            return response

