"""Trace context on the wire: framing roundtrips, tolerance, detection.

Property coverage (Hypothesis) for the :data:`CONTEXT_FLAG` frame
extension in :mod:`repro.network.messages`:

* any message of any kind ± any :class:`TraceContext` roundtrips
  exactly, and ``decode_message`` drops the context (the strategies are
  derived from the wire schema, :mod:`tests.harness.wire`);
* context-free frames carry no flag, a context costs exactly the 17
  context bytes;
* flipping any bit of a frame — header, type byte and flag included —
  decodes to :class:`MessageError`, never a mis-parented span or
  another kind of message;

plus the retry-visible span attributes: a deterministically dropped
first attempt yields ``reason="lost"`` then ``reason="ok"`` under one
``trace_id`` with a shrinking deadline, the server sees that exact
context, an obs-off channel puts pristine pre-context frames on the
wire, and a corrupt-heavy wire with tracing on still trains to the
bit-identical final state.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import (
    CacheConfig,
    NetworkFaultConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.optimizers import PSAdagrad
from repro.network.frontend import RemotePSClient
from repro.network.messages import (
    CONTEXT_FLAG,
    CheckpointRequest,
    MessageError,
    StatusResponse,
    decode_envelope,
    decode_message,
    encode_message,
)
from repro.network.rpc import RpcChannel, RpcServer
from repro.obs import Tracer
from repro.simulation.clock import SimClock
from repro.simulation.network import Delivery, NetworkModel
from tests.harness.wire import CONTEXTS, MESSAGES, assert_same_message

DIM = 4


# ----------------------------------------------------------------------
# framing properties
# ----------------------------------------------------------------------


class TestFraming:
    @given(message=MESSAGES, context=st.one_of(st.none(), CONTEXTS))
    def test_roundtrip_with_and_without_context(self, message, context):
        frame = encode_message(message, context)
        assert bool(frame[0] & CONTEXT_FLAG) == (context is not None)
        decoded, decoded_context = decode_envelope(frame)
        assert decoded_context == context
        assert_same_message(decoded, message)
        # decode_message is the context-blind legacy entry point.
        assert_same_message(decode_message(frame), message)

    @given(message=MESSAGES, context=CONTEXTS)
    def test_context_costs_exactly_its_wire_bytes(self, message, context):
        plain = encode_message(message)
        traced = encode_message(message, context)
        assert len(traced) == len(plain) + 16
        # The plain frame carries no flag and no prefix.
        assert plain[0] == message.TYPE
        assert plain[0] & CONTEXT_FLAG == 0

    @given(
        message=MESSAGES, context=st.one_of(st.none(), CONTEXTS), data=st.data()
    )
    def test_any_payload_corruption_is_detected(self, message, context, data):
        frame = bytearray(encode_message(message, context))
        # Not only the payload: the CRC covers the type byte, the
        # context and the body, and the length must match, so no bit of
        # the frame is unprotected.
        offset = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[offset] ^= 1 << bit
        with pytest.raises(MessageError):
            decode_envelope(bytes(frame))

    def test_flagged_frame_too_short_for_context(self):
        payload = b"\x00" * 10  # < the 16-byte context prefix
        type_byte = CheckpointRequest.TYPE | CONTEXT_FLAG
        frame = (
            struct.pack(
                "<BII",
                type_byte,
                len(payload),
                zlib.crc32(payload, zlib.crc32(bytes([type_byte]))),
            )
            + payload
        )
        with pytest.raises(MessageError, match="trace context"):
            decode_envelope(frame)


# ----------------------------------------------------------------------
# channel behaviour
# ----------------------------------------------------------------------


class DropFirstRequestLink:
    """Deterministic link: eats exactly the first request frame."""

    def __init__(self):
        self.network = NetworkModel()
        self._dropped = False

    def transfer(self, frame, direction, concurrent_flows=1):
        elapsed = self.network.transfer_time(len(frame), concurrent_flows)
        if direction == "request" and not self._dropped:
            self._dropped = True
            return Delivery(copies=(), elapsed=elapsed)
        return Delivery(copies=(frame,), elapsed=elapsed)


class RecordingLink:
    """Perfect link that keeps a copy of every request frame."""

    def __init__(self):
        self.network = NetworkModel()
        self.request_frames: list[bytes] = []

    def transfer(self, frame, direction, concurrent_flows=1):
        if direction == "request":
            self.request_frames.append(bytes(frame))
        elapsed = self.network.transfer_time(len(frame), concurrent_flows)
        return Delivery(copies=(frame,), elapsed=elapsed)


RETRY = RetryConfig(
    max_attempts=6, attempt_timeout_s=0.05, call_timeout_s=5.0, seed=1
)


def _echo_server(contexts_seen=None):
    server = RpcServer()

    def handler(request):
        if contexts_seen is not None:
            contexts_seen.append(server.current_context)
        return StatusResponse(StatusResponse.OK, request.batch_id)

    server.register(CheckpointRequest.TYPE, handler)
    return server


class TestAttemptSpans:
    def test_retried_attempt_attrs_and_stable_trace_id(self):
        # Regression for the attempt-level span attributes: a dropped
        # first exchange must read as lost-then-ok under ONE trace id,
        # with the deadline visibly shrinking across attempts.
        contexts = []
        server = _echo_server(contexts)
        clock = SimClock()
        tracer = Tracer(clock=clock)
        channel = RpcChannel(
            server, DropFirstRequestLink(), clock, retry=RETRY, tracer=tracer
        )
        response = channel.call(CheckpointRequest(batch_id=7))
        assert response.value == 7

        attempts = [
            s for s in tracer.closed_spans() if s.name == "rpc.attempt"
        ]
        assert len(attempts) == 2
        first, second = attempts
        assert first.attrs["attempt"] == 1
        assert first.attrs["reason"] == "lost"
        assert second.attrs["attempt"] == 2
        assert second.attrs["reason"] == "ok"
        assert first.attrs["trace_id"] == second.attrs["trace_id"]
        assert first.attrs["span_id"] == first.span_id
        assert second.attrs["span_id"] == second.span_id
        assert first.attrs["span_id"] != second.attrs["span_id"]
        assert (
            second.attrs["deadline_remaining_s"]
            < first.attrs["deadline_remaining_s"]
        )
        # The server decoded the exact context of the attempt that
        # reached it: same trace, parented to the second attempt.
        assert len(contexts) == 1
        assert contexts[0].trace_id == second.attrs["trace_id"]
        assert contexts[0].parent_span_id == second.attrs["span_id"]

    def test_obs_off_frames_are_pre_context_bytes(self):
        link = RecordingLink()
        channel = RpcChannel(_echo_server(), link, SimClock(), retry=RETRY)
        request = CheckpointRequest(batch_id=3)
        channel.call(request)
        assert link.request_frames == [encode_message(request)]
        assert link.request_frames[0][0] & CONTEXT_FLAG == 0

    def test_enabled_tracer_stamps_every_frame(self):
        link = RecordingLink()
        clock = SimClock()
        channel = RpcChannel(
            _echo_server(), link, clock, retry=RETRY, tracer=Tracer(clock=clock)
        )
        channel.call(CheckpointRequest(batch_id=3))
        channel.call(CheckpointRequest(batch_id=4))
        ids = []
        for frame in link.request_frames:
            assert frame[0] & CONTEXT_FLAG
            __, context = decode_envelope(frame)
            assert context is not None
            ids.append(context.trace_id)
        assert len(set(ids)) == 2  # one trace per call


# ----------------------------------------------------------------------
# corrupt wire + tracing: still trains to the bit-identical state
# ----------------------------------------------------------------------


class TestCorruptWireEquivalence:
    def test_context_frames_survive_heavy_corruption(self):
        config = ServerConfig(
            num_nodes=2, embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22, seed=4,
        )
        cache = CacheConfig(capacity_bytes=8 * DIM * 4)

        def train(client):
            rng = np.random.default_rng(0)
            for batch in range(12):
                keys = sorted(rng.choice(40, size=6, replace=False).tolist())
                grads = rng.normal(0, 0.1, (6, DIM)).astype(np.float32)
                client.pull(keys, batch)
                client.maintain(batch)
                client.push(keys, grads, batch)
            return client.state_snapshot()

        clean = train(RemotePSClient(config, cache, PSAdagrad(lr=0.05)))
        tracer = Tracer()
        faulty = train(
            RemotePSClient(
                config, cache, PSAdagrad(lr=0.05),
                faults=NetworkFaultConfig(corrupt_rate=0.25, seed=7),
                retry=RetryConfig(
                    max_attempts=12, attempt_timeout_s=0.05,
                    call_timeout_s=5.0, seed=1,
                ),
                tracer=tracer,
            )
        )
        assert clean.keys() == faulty.keys()
        for key in clean:
            assert np.array_equal(clean[key], faulty[key]), key
        # Corruption was actually exercised and surfaced as retryable
        # rejections/damage on the attempt spans, not silent decode.
        reasons = {
            s.attrs.get("reason")
            for s in tracer.closed_spans()
            if s.name == "rpc.attempt"
        }
        assert reasons & {"rejected", "reply_damaged"}
        assert "ok" in reasons
