"""The compiled wire codec and the short path of a clean call.

* **Straight-line codecs** — every kind's ``encode_body`` /
  ``decode_body`` is written out from its ``WIRE`` declaration when the
  kind is created: no loop runs when a message crosses the wire, and no
  generic walker is left beside them.
* **Every refusal, for every kind** — a body truncated by one byte, with
  one trailing byte, or with an extent that disagrees with its length,
  and an array of the wrong rank on encode, are each a
  :class:`MessageError` naming the kind.
* **The probe seams** — ``benchmarks/e2e/probes.py`` times the codec by
  wrapping ``encode_frame`` / ``encode_message`` / ``decode_message`` /
  ``decode_envelope`` in :mod:`repro.network.rpc`'s namespace and the
  request kinds' ``encode_body``; one clean call and its dispatch pass
  through each once, on the short path and on the observed one.
* **The short path resumes exactly** — over a lossy wire, a channel
  that takes the short path (no tracer, no registry) moves the same
  bytes, retries, backoff and clock as one whose every call runs the
  full attempt loop.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.config import NetworkFaultConfig
from repro.errors import RpcTimeoutError
from repro.failure.network_faults import FaultyLink
from repro.network import messages as m
from repro.network import rpc
from repro.network.rpc import RpcChannel, RpcServer
from repro.obs.registry import MetricsRegistry
from repro.simulation.clock import SimClock
from repro.simulation.network import NetworkModel
from tests.harness.wire import KINDS, messages_of

_IDS = {"ids": lambda kind: kind.__name__}


class TestCompiledCodec:
    @pytest.mark.parametrize("kind", KINDS, **_IDS)
    def test_each_kind_runs_straight_line_code(self, kind):
        source = kind.WIRE.source
        assert "for " not in source and "while " not in source
        where = f"<{kind.__name__} codec>"  # what a traceback through it names
        assert kind.encode_body.__code__.co_filename == where
        assert kind.decode_body.__func__.__code__.co_filename == where

    def test_no_generic_walker_is_left(self):
        assert "encode_body" not in vars(m._Message)
        assert "decode_body" not in vars(m._Message)
        assert not hasattr(m._Wire, "columns_for")

    def test_a_declaration_that_sizes_no_extent_is_refused(self):
        with pytest.raises(TypeError, match="no column sizes"):

            @dataclasses.dataclass(frozen=True)
            class Unsized(m._Message):
                TYPE = 0x7F
                WIRE = m._Wire("n u32, width u32, rows f32[n, dim]")

                rows: np.ndarray

        assert 0x7F not in m._MESSAGE_TYPES


def _extents(kind) -> list[str]:
    """The header slots a body sizes itself by (slots that are no field)."""
    return [slot for slot in kind.WIRE.slots if slot not in kind.WIRE.field_slots]


def _refuses(kind, body) -> None:
    with pytest.raises(m.MessageError, match=kind.__name__):
        kind.decode_body(body)


def _column_arrays(message):
    """``(column, array)`` of every column the message's body carries."""
    wire = type(message).WIRE
    case = wire.cases[getattr(message, wire.switch) if wire.switch else None]
    for column in case:
        value = message
        for part in column.name.split("."):
            value = getattr(value, part)
        yield column, value


def _sizes_body(message, extent: str) -> bool:
    """Whether the body's length moves with ``extent``: no column names
    it (a text length), or one does whose other axes hold elements."""
    named = [
        math.prod(size for name, size in zip(column.shape, array.shape) if name != extent)
        for column, array in _column_arrays(message)
        if extent in column.shape
    ]
    return not named or any(named)


def _with_array(message, path: str, array):
    group, __, leaf = path.rpartition(".")
    if group:
        block = dataclasses.replace(getattr(message, group), **{leaf: array})
        return dataclasses.replace(message, **{group: block})
    return dataclasses.replace(message, **{leaf: array})


class TestEveryRefusal:
    @pytest.mark.parametrize("kind", KINDS, **_IDS)
    @given(data=st.data())
    def test_a_body_one_byte_short_or_long_is_refused(self, kind, data):
        body = data.draw(messages_of(kind)).encode_body()
        _refuses(kind, memoryview(body)[:-1])
        _refuses(kind, body + b"\0")

    @pytest.mark.parametrize(
        "kind", [kind for kind in KINDS if _extents(kind)], **_IDS
    )
    @given(data=st.data())
    def test_an_extent_that_disagrees_with_the_length_is_refused(self, kind, data):
        wire = kind.WIRE
        message = data.draw(messages_of(kind))
        slot = data.draw(st.sampled_from(_extents(kind)))
        assume(_sizes_body(message, slot))  # n rows of dim 0 are 0 bytes at any n
        body = message.encode_body()
        values = dict(zip(wire.slots, wire.header.unpack_from(body)))
        # The largest the slot holds: a body that long is never drawn.
        values[slot] = (1 << 8 * struct.calcsize(m._SLOT_CODES[wire.slot_types[slot]])) - 1
        _refuses(kind, wire.header.pack(*values.values()) + body[wire.header.size :])

    @pytest.mark.parametrize(
        "kind", [kind for kind in KINDS if any(kind.WIRE.cases.values())], **_IDS
    )
    @given(data=st.data())
    def test_an_array_of_the_wrong_rank_is_refused_on_encode(self, kind, data):
        message = data.draw(messages_of(kind))
        for column, array in _column_arrays(message):
            # One axis more, and (for a matrix) one fewer: a 0-d array
            # would be read as one element of a vector.
            for wrong in [array[None]] + [array.reshape(-1)] * (array.ndim > 1):
                with pytest.raises(m.MessageError, match=kind.__name__):
                    _with_array(message, column.name, wrong).encode_body()


PROBED_REQUESTS = {
    m.PullRequest: m.PullRequest(batch_id=3, keys=np.arange(4, dtype=np.uint64)),
    m.PushRequest: m.PushRequest(
        batch_id=3, keys=np.arange(2, dtype=np.uint64),
        grads=np.ones((2, 4), np.float32), worker_id=1, seq=7,
    ),
    m.MaintainRequest: m.MaintainRequest(batch_id=3),
    m.CheckpointRequest: m.CheckpointRequest(batch_id=3),
    m.LookupRequest: m.LookupRequest(snapshot_id=2, keys=np.arange(3, dtype=np.uint64)),
}
"""The request kinds the e2e benchmark's probes wrap ``encode_body`` on."""

SEAMS = ("encode_frame", "encode_message", "decode_message", "decode_envelope")


class TestProbeSeams:
    @pytest.mark.parametrize("observed", [False, True], ids=["short", "observed"])
    @pytest.mark.parametrize("kind", list(PROBED_REQUESTS), **_IDS)
    def test_a_call_and_its_dispatch_pass_every_seam_once(
        self, monkeypatch, kind, observed
    ):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in SEAMS:
            monkeypatch.setattr(rpc, name, counting(name, getattr(rpc, name)))
        monkeypatch.setattr(kind, "encode_body", counting("encode_body", kind.encode_body))
        server = RpcServer()
        server.register(kind.TYPE, lambda request: m.StatusResponse(m.StatusResponse.OK, 1))
        channel = RpcChannel(server, registry=MetricsRegistry() if observed else None)
        assert channel.call(PROBED_REQUESTS[kind]).value == 1
        # The client encodes the body and frames it, the server decodes
        # the envelope and encodes its reply, the client decodes that.
        assert calls == dict.fromkeys(("encode_body", *SEAMS), 1)


class TestShortPathResumesExactly:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_lossy_wire_reads_the_same_on_both_paths(self, seed):
        faults = NetworkFaultConfig(
            drop_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.2, delay_rate=0.1,
            seed=seed,
        )
        runs = []
        for registry in (None, MetricsRegistry()):
            server = RpcServer()
            server.register(
                m.CheckpointRequest.TYPE,
                lambda request: m.StatusResponse(m.StatusResponse.OK, request.batch_id),
            )
            clock = SimClock()
            link = FaultyLink(NetworkModel(), faults)
            channel = RpcChannel(server, link, clock, channel_id=seed, registry=registry)
            outcomes = []
            for batch in range(60):
                try:
                    outcomes.append(channel.call(m.CheckpointRequest(batch)).value)
                except RpcTimeoutError as exc:
                    outcomes.append(str(exc))
            runs.append((outcomes, channel.stats, clock.now, link.stats))
        assert runs[0] == runs[1]
        assert runs[0][1].retries > 0  # the wire did make the short path resume
