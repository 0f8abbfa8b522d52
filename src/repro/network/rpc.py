"""RPC channel and server dispatcher over the simulated link.

A :class:`RpcChannel` is one worker's connection to one PS node. The
link is a first-class failure domain: the channel frames a request,
moves it over a (possibly faulty) link, waits up to a per-attempt
timeout for the reply, and retries with exponential backoff + jitter
under a per-call budget — all charged to the shared simulated clock.
Budget exhaustion raises :class:`~repro.errors.RpcTimeoutError`.

Wire-error discipline: :meth:`RpcServer.dispatch` never lets a handler
exception cross the link as a raw Python exception. Failures become
error-coded :class:`~repro.network.messages.StatusResponse` frames,
and the channel re-raises them client-side as the matching typed error
(:class:`CheckpointError`, :class:`KeyNotFoundError`, ...). Damaged
frames (``ERR_MESSAGE``) are the one retryable wire error — the client
still holds the pristine frame.

Traffic statistics accumulate per channel on *both* success and
failure paths, so benchmarks report the bytes a lossy deployment would
actually move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import RetryConfig
from repro.errors import (
    CheckpointError,
    FailoverError,
    KeyNotFoundError,
    NodeDeadError,
    ReproError,
    RpcTimeoutError,
    ServerError,
    StalenessError,
)
from repro.network.messages import (
    MessageError,
    StatusResponse,
    TraceContext,
    decode_envelope,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer
from repro.simulation.clock import SimClock
from repro.simulation.network import Delivery, NetworkModel

# ----------------------------------------------------------------------
# wire-error discipline: exception <-> status-code mapping
# ----------------------------------------------------------------------

#: Ordered (class, code) pairs; the first isinstance match wins, so
#: subclasses must precede their bases.
_CODE_FOR_ERROR: tuple[tuple[type, int], ...] = (
    (CheckpointError, StatusResponse.ERR_CHECKPOINT),
    (KeyNotFoundError, StatusResponse.ERR_KEY_NOT_FOUND),
    (MessageError, StatusResponse.ERR_MESSAGE),
    (FailoverError, StatusResponse.ERR_FAILOVER),
    (StalenessError, StatusResponse.ERR_STALENESS),
    (ServerError, StatusResponse.ERR_SERVER),
    (ReproError, StatusResponse.ERR_INTERNAL),
)

_ERROR_FOR_CODE: dict[int, type] = {
    StatusResponse.ERR_CHECKPOINT: CheckpointError,
    StatusResponse.ERR_KEY_NOT_FOUND: KeyNotFoundError,
    StatusResponse.ERR_MESSAGE: MessageError,
    StatusResponse.ERR_UNHANDLED: MessageError,
    StatusResponse.ERR_FAILOVER: FailoverError,
    StatusResponse.ERR_STALENESS: StalenessError,
    StatusResponse.ERR_SERVER: ServerError,
    StatusResponse.ERR_INTERNAL: ServerError,
}


class Unresponsive(Exception):
    """Raised by a service handler to simulate a *dead process*.

    Deliberately NOT a :class:`ReproError`: the wire-error discipline
    folds library errors into status frames, but a dead process sends
    nothing at all. :meth:`RpcServer.dispatch` converts this into
    silence (no reply frame), so the client's attempt times out exactly
    as if the machine had vanished — which is what lease-based failure
    detection must observe to do its job.
    """


def status_for_exception(exc: ReproError) -> StatusResponse:
    """Fold a handler exception into an error-coded response frame."""
    for cls, code in _CODE_FOR_ERROR:
        if isinstance(exc, cls):
            return StatusResponse(code=code, detail=str(exc))
    return StatusResponse(code=StatusResponse.ERR_INTERNAL, detail=str(exc))


def error_for_status(response: StatusResponse) -> ReproError:
    """The typed client-side error for a non-OK status response."""
    error_cls = _ERROR_FOR_CODE.get(response.code, ServerError)
    return error_cls(f"remote error (code {response.code}): {response.detail}")


# ----------------------------------------------------------------------
# link abstraction
# ----------------------------------------------------------------------


class PerfectLink:
    """Adapter giving a plain :class:`NetworkModel` the link API.

    Always delivers exactly one pristine copy; used whenever no fault
    injection is configured, so the clean path stays byte- and
    time-identical to a fault-free wire.
    """

    def __init__(self, network: NetworkModel):
        self.network = network

    def transfer(
        self, frame: bytes, direction: str, concurrent_flows: int = 1
    ) -> Delivery:
        """Move ``frame`` one way; never drops, duplicates or delays."""
        elapsed = self.network.transfer_time(len(frame), concurrent_flows)
        return Delivery((frame,), elapsed)


def as_link(network) -> "PerfectLink":
    """Coerce a :class:`NetworkModel` (or any link) to the link API."""
    if hasattr(network, "transfer"):
        return network
    return PerfectLink(network)


# ----------------------------------------------------------------------
# channel + server
# ----------------------------------------------------------------------


@dataclass
class RpcStats:
    """Per-channel traffic and reliability counters.

    Byte counters accumulate on success *and* failure paths: a request
    whose reply is lost still moved its bytes over the wire.
    """

    calls: int = 0
    attempts: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    retries: int = 0
    timeouts: int = 0
    wire_errors: int = 0
    backoff_seconds: float = 0.0
    #: Calls abandoned because the node was declared dead (rerouted).
    dead_fails: int = 0

    @property
    def total_bytes(self) -> int:
        return self.request_bytes + self.response_bytes


class RpcServer:
    """Server-side dispatch: message type -> handler.

    Handlers receive the decoded request and return a response message.
    Handler exceptions deriving from :class:`ReproError` are folded
    into error-coded :class:`StatusResponse` frames (wire-error
    discipline); anything else is a server bug and propagates.
    """

    def __init__(self) -> None:
        self._handlers: dict[int, Callable] = {}
        self.handler_errors = 0
        #: Trace context of the request currently being dispatched
        #: (None for context-free frames). Handlers read this to parent
        #: their server-side spans to the client's attempt span.
        self.current_context: TraceContext | None = None

    def register(self, message_type: int, handler: Callable) -> None:
        if message_type in self._handlers:
            raise ReproError(f"handler for type 0x{message_type:02x} already set")
        self._handlers[message_type] = handler

    def dispatch(self, frame: bytes) -> bytes | None:
        """Decode one request frame, run its handler, encode the reply.

        Never raises for frame damage or handler-level
        :class:`ReproError` failures — those become error-coded
        responses the client re-raises as typed errors. A handler
        raising :class:`Unresponsive` produces ``None``: the node is
        (simulated-)dead and sends nothing; the client's attempt will
        time out.
        """
        self.current_context = None
        try:
            request, context = decode_envelope(frame)
        except MessageError as exc:
            return encode_message(
                StatusResponse(code=StatusResponse.ERR_MESSAGE, detail=str(exc))
            )
        self.current_context = context
        handler = self._handlers.get(request.TYPE)
        if handler is None:
            return encode_message(
                StatusResponse(
                    code=StatusResponse.ERR_UNHANDLED,
                    detail=f"no handler registered for {type(request).__name__}",
                )
            )
        try:
            response = handler(request)
        except Unresponsive:
            return None
        except ReproError as exc:
            self.handler_errors += 1
            return encode_message(status_for_exception(exc))
        return encode_message(response)


class RpcChannel:
    """A worker's connection to one PS node, with retry semantics.

    Args:
        server: the node-side dispatcher.
        network: the shared link model — either a plain
            :class:`NetworkModel` (perfect wire) or a
            :class:`~repro.failure.network_faults.FaultyLink`.
        clock: simulated clock advanced by wire time, loss timeouts and
            backoff; pass None to skip timing (pure-functional use).
        retry: retry/timeout policy; defaults to :class:`RetryConfig`.
        channel_id: perturbs the jitter RNG so channels don't share a
            backoff schedule.
        tracer: span sink; every call/attempt/backoff becomes a nested
            span (no-op on the shared disabled tracer).
        registry: when given, successful calls observe their round-trip
            time into the ``repro_rpc_roundtrip_seconds`` histogram,
            labeled by request kind.
        node_dead: optional predicate consulted before each attempt and
            at budget exhaustion. When it returns True the channel
            raises :class:`~repro.errors.NodeDeadError` ("stop
            retrying, reroute") instead of burning attempts or raising
            :class:`~repro.errors.RpcTimeoutError` ("the wire may have
            eaten it, retry"). Wired by
            :class:`~repro.network.frontend.RemotePSClient` to the
            failure detector's verdict so no client ever spins on a
            corpse during a promotion window.
    """

    def __init__(
        self,
        server: RpcServer,
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
        retry: RetryConfig | None = None,
        channel_id: int = 0,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        node_dead: Callable[[], bool] | None = None,
    ):
        self.server = server
        self.link = as_link(network if network is not None else NetworkModel())
        self.clock = clock
        self.retry = retry or RetryConfig()
        self.channel_id = channel_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        self.node_dead = node_dead
        self.stats = RpcStats()
        self._jitter_rng = np.random.default_rng((self.retry.seed, channel_id))

    @property
    def network(self) -> NetworkModel:
        """The underlying byte-timing model (through any fault wrapper)."""
        return self.link.network

    def call(self, request, concurrent_flows: int = 1, trace_id: int | None = None):
        """Round-trip one request; returns the decoded response.

        Retries lost/damaged deliveries with exponential backoff under
        the per-call budget. Raises the typed server error for non-OK
        status responses and :class:`RpcTimeoutError` when the budget
        is exhausted.

        Observability: the whole call is one ``rpc.call`` span with one
        ``rpc.attempt`` child per exchange and an ``rpc.backoff`` child
        per retry sleep, so a lossy wire's latency structure is visible
        span-by-span in the trace. Each attempt records ``attempt``,
        ``reason`` (ok / lost / reply_damaged / rejected / error) and
        ``deadline_remaining_s``, so backoff storms read differently
        from slow servers. When the tracer is enabled, every wire frame
        additionally carries a :class:`TraceContext` — ``trace_id``
        (caller-supplied for multi-call operations, else derived
        deterministically from the channel id and call count) plus the
        attempt span's id — so server-side spans can be flow-linked
        back to the exact attempt that caused them. With tracing off no
        context is attached and frames are bit-identical to the
        pre-context wire.
        """
        body = request.encode_body()
        frame = encode_frame(request.TYPE, body)
        self.stats.calls += 1
        if self.tracer.enabled or self.registry is not None:
            return self._retry(request, body, frame, concurrent_flows, trace_id)
        # The short path of a clean call: no span, no histogram, and the
        # first attempt answered. Any other outcome resumes in the retry
        # loop exactly where that loop would stand after attempt 1.
        self._raise_if_dead(NULL_SPAN, 0)
        retry = self.retry
        self.stats.attempts += 1
        reply_frame, elapsed = self._attempt(
            frame, concurrent_flows, min(retry.attempt_timeout_s, retry.call_timeout_s)
        )
        self._advance(elapsed)
        response, failure = self._settle(reply_frame, NULL_SPAN, NULL_SPAN)
        if failure is None:
            return response
        return self._retry(
            request, body, frame, concurrent_flows, trace_id, 1, elapsed, failure
        )

    def _retry(
        self,
        request,
        body: bytes,
        frame: bytes,
        concurrent_flows: int,
        trace_id: int | None,
        attempt: int = 0,
        spent: float = 0.0,
        failure: str = "no attempt made",
    ):
        """The attempt loop of :meth:`call`, from ``attempt`` attempts
        made in ``spent`` seconds (the last one failing as ``failure``)."""
        retry = self.retry
        sampled = self.tracer.enabled
        if sampled and trace_id is None:
            trace_id = ((self.channel_id + 1) << 32) | self.stats.calls
        kind = type(request).__name__
        with self.tracer.span(
            "rpc.call", kind=kind, channel=self.channel_id
        ) as call_span:
            if sampled:
                call_span.set(trace_id=trace_id)
            while attempt < retry.max_attempts:
                if attempt and spent < retry.call_timeout_s:
                    backoff = min(
                        self._jittered_backoff(attempt),
                        retry.call_timeout_s - spent,
                    )
                    spent += backoff
                    self.stats.backoff_seconds += backoff
                    with self.tracer.span("rpc.backoff", seconds=backoff):
                        self._advance(backoff)
                # Declared dead: fail fast and typed instead of burning
                # the remaining retry budget on a corpse.
                self._raise_if_dead(call_span, attempt)
                patience = min(
                    retry.attempt_timeout_s, retry.call_timeout_s - spent
                )
                if patience <= 0:
                    break
                attempt += 1
                if attempt > 1:
                    self.stats.retries += 1
                self.stats.attempts += 1
                with self.tracer.span("rpc.attempt", n=attempt) as attempt_span:
                    wire_frame = frame
                    if sampled:
                        span_id = getattr(attempt_span, "span_id", 0)
                        attempt_span.set(
                            attempt=attempt,
                            trace_id=trace_id,
                            span_id=span_id,
                            deadline_remaining_s=retry.call_timeout_s - spent,
                        )
                        wire_frame = encode_frame(
                            request.TYPE, body, TraceContext(trace_id, span_id)
                        )
                    reply_frame, elapsed = self._attempt(
                        wire_frame, concurrent_flows, patience
                    )
                    spent += elapsed
                    self._advance(elapsed)
                    attempt_span.set(lost=reply_frame is None)
                response, failure = self._settle(reply_frame, call_span, attempt_span)
                if failure is None:
                    call_span.set(attempts=attempt)
                    if self.registry is not None:
                        self.registry.histogram(
                            "repro_rpc_roundtrip_seconds", {"kind": kind}
                        ).observe(spent)
                    return response
            self._raise_if_dead(call_span, attempt)
            self.stats.timeouts += 1
            call_span.set(timeout=True, attempts=attempt)
            raise RpcTimeoutError(
                f"call abandoned after {attempt} attempt(s) / "
                f"{spent:.6f}s of a {retry.call_timeout_s:.6f}s budget: {failure}",
                attempts=attempt,
                spent_seconds=spent,
            )

    def _settle(self, reply_frame: bytes | None, call_span, attempt_span):
        """What one attempt's reply means: ``(response, None)`` when it
        answered, ``(None, why)`` when the call may try again. A
        non-retryable error status raises its typed error."""
        if reply_frame is None:
            attempt_span.set(reason="lost")
            return None, "message lost (no reply within attempt timeout)"
        try:
            response = decode_message(reply_frame)
        except MessageError as exc:
            attempt_span.set(reason="reply_damaged")
            return None, f"reply damaged in flight: {exc}"
        if type(response) is StatusResponse and not response.ok:
            self.stats.wire_errors += 1
            if not response.retryable:
                call_span.set(error=response.code)
                attempt_span.set(reason="error")
                raise error_for_status(response)
            attempt_span.set(reason="rejected")
            return None, f"request damaged in flight (server says: {response.detail})"
        attempt_span.set(reason="ok")
        return response, None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _raise_if_dead(self, call_span, attempt: int) -> None:
        """Abandon the call with :class:`NodeDeadError` once the failure
        detector declared the node behind this channel dead."""
        if self.node_dead is not None and self.node_dead():
            self.stats.dead_fails += 1
            call_span.set(dead=True, attempts=attempt)
            raise NodeDeadError(
                f"node behind channel {self.channel_id} declared dead "
                f"after {attempt} attempt(s)",
                node_id=self.channel_id,
                attempts=attempt,
            )

    def _attempt(
        self, frame: bytes, concurrent_flows: int, patience: float
    ) -> tuple[bytes | None, float]:
        """One request/response exchange.

        Returns ``(reply_frame, elapsed)``; ``reply_frame`` is None for
        a lost exchange, in which case ``elapsed`` is the full
        ``patience`` the client waited before giving up. Every
        delivered request copy is dispatched (that is what exercises
        server-side dedup); the first copy's reply travels back.
        """
        request_delivery = self.link.transfer(frame, "request", concurrent_flows)
        self.stats.request_bytes += len(frame)
        elapsed = request_delivery.elapsed
        if not request_delivery.copies:
            return None, patience
        replies = list(map(self.server.dispatch, request_delivery.copies))
        reply = replies[0]
        if reply is None:
            # Dead-process silence: the request was consumed but nothing
            # comes back — the client waits out its full patience.
            return None, patience
        response_delivery = self.link.transfer(reply, "response", concurrent_flows)
        self.stats.response_bytes += len(reply)
        elapsed += response_delivery.elapsed
        if not response_delivery.copies:
            return None, patience
        if elapsed > patience:
            # Delivered, but after the client stopped listening: the
            # server-side effect stands; the client retries.
            return None, patience
        return response_delivery.copies[0], elapsed

    def _jittered_backoff(self, attempt: int) -> float:
        """The wait after ``attempt`` (1-based): ``base_backoff_s``
        doubled per retry, capped at ``max_backoff_s``, then jittered."""
        retry = self.retry
        backoff = min(
            retry.max_backoff_s, retry.base_backoff_s * 2.0 ** (attempt - 1)
        )
        if retry.jitter > 0:
            swing = retry.jitter * (2.0 * self._jitter_rng.random() - 1.0)
            backoff *= 1.0 + swing
        return max(0.0, backoff)

    def _advance(self, seconds: float) -> None:
        if self.clock is not None and seconds > 0:
            self.clock.advance(seconds)
