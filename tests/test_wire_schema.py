"""The wire schema: bytes pinned, every bit protected, blocks end to end.

* **Golden frames** — ``tests/golden_frames.json`` holds one hex frame
  per kind and variant, generated by the hand-written codec this schema
  replaced and then patched in their four CRC bytes only (the CRC now
  also covers the type byte); the four kinds that lost an unread field,
  ``PromoteRequest`` (whose unread epoch became ``node_id``) and every
  traced frame (16-byte context) were re-recorded from this codec. ``encode_message`` must reproduce each byte for byte.
* **Exhaustive damage** on those frames: every single-bit flip, every
  truncation and a trailing byte is a :class:`MessageError`, never
  another message.
* **Ownership**: decoded arrays of every kind are read-only views into
  the received frame.
* **The type-byte hole** (regression): a one-bit flip of byte 0 used to
  decode clean as another kind of the same body size.
* **EntryBlock**: entries leave one store and reach another — locally
  or as the ``EntryBlock`` an export replies with and a
  ``MigrateRequest`` PUT carries — as the same four columns, equal to a
  direct ``store.ingest``.
* **Catalogue**: the module docstring's table is the schema.
* **No dead kind**: one request of each kind dispatched through a
  ``PSNodeService``: every request kind has a sender and a handler, and
  every other kind is what a handler returned.
"""

from __future__ import annotations

import ast
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.cache import MaintainResult, PullResult
from repro.core.optimizers import PSAdagrad, PSSGD
from repro.core.ps_node import PSNode
from repro.core.replication import ReplicatedPSNode
from repro.core.serving_backend import LookupResult
from repro.network import frontend
from repro.network import messages as m
from repro.network.frontend import RemotePSClient
from repro.network.rpc import RpcChannel
from repro.network.service import PSNodeService
from repro.pmem.pool import PmemPool
from repro.pmem.space import NO_ENTRIES, EntryBlock, VersionedEntryStore
from repro.simulation.network import Delivery, NetworkModel
from tests.harness.keyed_store import KeyedStore, keyed
from tests.harness.wire import KINDS, arrays_of, assert_same_message

GOLDEN = json.loads(Path(__file__).with_name("golden_frames.json").read_text())


def _f32(*shape):
    size = int(np.prod(shape))
    return (np.arange(size, dtype=np.float32) * 0.5 - 1).reshape(shape)


def _u64(*keys):
    return np.array(keys, dtype=np.uint64)


def _block(keys, nversions, batch_ids, rows):
    return EntryBlock(
        np.array(keys, np.uint64),
        np.array(nversions, np.uint32),
        np.array(batch_ids, np.int64),
        rows,
    )


VALUE = _block([7, 9], [1, 2], [0, 1, 4], _f32(3, 3))
CONTEXT = m.TraceContext(0x1122334455667788, 0x99AABBCCDDEEFF00)

CASES = {
    "PullRequest": m.PullRequest(
        batch_id=7, keys=_u64(1, 2, 2**64 - 1), worker_id=3, progress=6
    ),
    "PullRequest.anonymous": m.PullRequest(batch_id=0, keys=_u64()),
    "PullResult": PullResult(weights=_f32(2, 3), hits=1, misses=1, created=0),
    "PushRequest": m.PushRequest(
        batch_id=9, keys=_u64(5, 6), grads=_f32(2, 2), worker_id=2,
        seq=m.ANONYMOUS_SEQ_BASE | 1,
    ),
    "CheckpointRequest": m.CheckpointRequest(batch_id=-1),
    "StatusResponse": m.StatusResponse(code=0, value=12),
    "StatusResponse.detail": m.StatusResponse(
        code=6, value=-3, detail="checksum mismatch ✓"
    ),
    "StatusResponse.truncated": m.StatusResponse(code=1, detail="a" * 511 + "éé"),
    "MaintainRequest": m.MaintainRequest(batch_id=7),
    "MaintainResult": MaintainResult(
        processed=1, loads=2, flushes=3, evictions=4, checkpoints_completed=5
    ),
    "MigrateRequest.put": m.MigrateRequest(
        op=1, source=1, seq=5, width=3, entries=VALUE
    ),
    "MigrateRequest.put_empty": m.MigrateRequest(
        op=1, source=1, seq=7, width=3, entries=_block([], [], [], _f32(0, 3))
    ),
    "MigrateRequest.export": m.MigrateRequest(
        op=0, source=2, seq=8, width=3, keys=_u64(7, 9, 11)
    ),
    "MigrateRequest.delete": m.MigrateRequest(op=2, source=2, seq=9, keys=_u64(7, 9)),
    "EntryBlock": VALUE,
    "EntryBlock.empty": _block([], [], [], _f32(0, 4)),
    "HeartbeatRequest": m.HeartbeatRequest(node_id=1),
    "PromoteRequest": m.PromoteRequest(node_id=1),
    "LookupRequest": m.LookupRequest(snapshot_id=-1, keys=_u64(4, 5), replica=1),
    "LookupResult": LookupResult(snapshot_id=5, weights=_f32(2, 2), hits=1, cold=1),
}

FRAMES = [
    pytest.param(CASES[name.removesuffix("+ctx")], name.endswith("+ctx"), id=name)
    for name in GOLDEN
]


class TestGoldenFrames:
    def test_every_kind_has_a_golden_frame(self):
        assert {type(case) for case in CASES.values()} == set(KINDS)
        assert set(GOLDEN) == {n + s for n in CASES for s in ("", "+ctx")}

    @pytest.mark.parametrize("message, traced", FRAMES)
    def test_encode_reproduces_the_committed_bytes(self, message, traced, request):
        context = CONTEXT if traced else None
        frame = bytes(m.encode_message(message, context))
        assert frame.hex() == GOLDEN[request.node.callspec.id]
        decoded, decoded_context = m.decode_envelope(frame)
        assert decoded_context == context
        if "truncated" not in request.node.callspec.id:
            assert_same_message(decoded, message)

    @pytest.mark.parametrize("message, traced", FRAMES)
    def test_any_damage_is_a_message_error(self, message, traced):
        """All ``8 * len(frame)`` single-bit flips, every truncation
        length and one trailing byte: never a decoded message."""
        frame = bytes(m.encode_message(message, CONTEXT if traced else None))
        damaged = [frame[:length] for length in range(len(frame))]
        damaged.append(frame + b"\x00")
        for offset in range(len(frame)):
            for bit in range(8):
                flipped = bytearray(frame)
                flipped[offset] ^= 1 << bit
                damaged.append(bytes(flipped))
        for bad in damaged:
            with pytest.raises(m.MessageError):
                m.decode_envelope(bad)

    @pytest.mark.parametrize("message, traced", FRAMES)
    def test_decoded_arrays_are_readonly_views_into_the_frame(self, message, traced):
        frame = bytes(m.encode_message(message, CONTEXT if traced else None))
        defaults = [array for __, array in arrays_of(NO_ENTRIES)]
        for name, array in arrays_of(m.decode_message(frame)):
            if any(array is default for default in defaults):
                continue  # MigrateRequest.entries of an EXPORT / DELETE
            assert not array.flags.writeable, name
            owner = array
            while isinstance(owner, np.ndarray):
                owner = owner.base
            assert owner.obj is frame, name  # the memoryview decode sliced


class TestTypeByteIsChecksummed:
    """Byte 0 was outside the CRC: ``MaintainRequest`` (0x06) and
    ``CheckpointRequest`` (0x04) differ in one bit and share a body
    size, so a flip decoded clean as the other kind."""

    @pytest.mark.parametrize(
        "message", [m.MaintainRequest(7), m.CheckpointRequest(7)], ids=repr
    )
    def test_flipped_type_bit_does_not_decode_as_the_sibling_kind(self, message):
        frame = bytearray(m.encode_message(message))
        frame[0] ^= 0x02
        with pytest.raises(m.MessageError, match="checksum"):
            m.decode_message(bytes(frame))

    @staticmethod
    def _client():
        link = FlipNextTypeBitLink()
        client = RemotePSClient(
            ServerConfig(num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 22),
            CacheConfig(capacity_bytes=8 * DIM * 4),
            network=link,
        )
        client.pull([1, 2, 3], 0)
        client.maintain(0)
        client.push([1, 2, 3], np.ones((3, DIM), dtype=np.float32), 0)
        return client, link

    def test_damaged_checkpoint_request_still_queues_the_checkpoint(self):
        client, link = self._client()
        link.armed = True
        client.request_checkpoint(0)
        assert client.nodes[0].coordinator.queue.pending() == [0]
        assert client.channels[0].stats.retries == 1
        assert client.channels[0].stats.wire_errors == 1

    def test_damaged_maintain_request_still_returns_the_round(self):
        client, link = self._client()
        client.pull([2, 3, 4], 1)
        link.armed = True
        (result,) = client.maintain(1)
        assert result.processed == 3
        assert client.nodes[0].coordinator.queue.pending() == []
        assert client.channels[0].stats.retries == 1
        assert client.channels[0].stats.wire_errors == 1


class FlipNextTypeBitLink:
    """Perfect link that, when armed, flips bit 1 of the type byte of
    the next request frame (0x04 <-> 0x06), once."""

    def __init__(self):
        self.network = NetworkModel()
        self.armed = False

    def transfer(self, frame, direction, concurrent_flows=1):
        if direction == "request" and self.armed:
            self.armed = False
            frame = bytes([frame[0] ^ 0x02]) + bytes(frame[1:])
        elapsed = self.network.transfer_time(len(frame), concurrent_flows)
        return Delivery(copies=(frame,), elapsed=elapsed)


# ----------------------------------------------------------------------
# EntryBlock: store -> (wire) -> store
# ----------------------------------------------------------------------

DIM = 4
LAST = 13


def _node(stateful: bool = True) -> PSNode:
    optimizer = PSAdagrad(lr=0.1) if stateful else PSSGD(lr=0.1)
    return PSNode(
        0,
        ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=3),
        CacheConfig(capacity_bytes=4 * (DIM + optimizer.state_width(DIM)) * 4),
        optimizer,
        cluster_mode=True,
    )


def _trained(stateful: bool = True) -> PSNode:
    """A node whose 4-entry LRU cache evicted ~60 times over 24 keys,
    holding one to three retained versions of each."""
    node = _node(stateful)
    rng = np.random.default_rng(1)
    for batch in range(LAST + 1):
        keys = sorted(rng.choice(24, size=5, replace=False).tolist())
        node.pull(keys, batch)
        node.maintain(batch)
        grads = rng.normal(0, 0.1, (5, DIM)).astype(np.float32)
        node.push(keys, grads, batch)
        if batch in (4, 9):
            node.request_checkpoint(batch)
    node.barrier_checkpoint(LAST)
    assert node.metrics.cache.evictions > 20
    return node


def _dump(store: VersionedEntryStore) -> dict:
    out = {}
    for key in sorted(store.keys()):
        versions = store.versions_of(key)
        rows = store.read_at_most([key] * len(versions), versions)[1]
        out[key] = [(version, rows[i].tobytes()) for i, version in enumerate(versions)]
    return out


def _over_rpc(src: PSNode, dst: PSNode, keys: list[int], width: int) -> int:
    exported = RpcChannel(PSNodeService(src).server).call(
        m.MigrateRequest(op=m.MigrateRequest.OP_EXPORT, keys=keys)
    )
    assert exported.rows.shape[1] == width  # the reply's width is its rows'
    return RpcChannel(PSNodeService(dst).server).call(
        m.MigrateRequest(
            op=m.MigrateRequest.OP_PUT, source=1, seq=1, width=width,
            entries=exported,
        )
    ).value


def _framed(src: PSNode, dst: PSNode, keys: list[int], width: int) -> int:
    frame = m.encode_message(src.export_entries(keys))
    return dst.ingest_entries(m.decode_message(bytes(frame)))


class TestEntryBlockEndToEnd:
    @pytest.mark.parametrize("move", [_framed, _over_rpc])
    # Rows of weights || Adagrad state, and of SGD's weights alone.
    @pytest.mark.parametrize("stateful", [True, False], ids=["value", "sgd"])
    def test_moved_entries_equal_a_direct_store_ingest(self, stateful, move):
        src = _trained(stateful)
        keys = sorted(src.owned_keys())
        block = src.export_entries(keys)
        assert set(block.nversions.tolist()) == {1, 2, 3}
        width = src.store.entry_bytes // 4

        reference = KeyedStore(VersionedEntryStore(PmemPool(1 << 22), src.store.entry_bytes))
        reference.ingest(block)
        assert _dump(reference) == _dump(keyed(src))

        dst = _node(stateful)
        assert move(src, dst, keys, width) == len(keys)
        assert _dump(keyed(dst)) == _dump(reference)
        for key in keys:
            assert keyed(dst).versions_of(key) == reference.versions_of(key)
            adopted = dst.cache.index.find(key)
            assert adopted.version == reference.versions_of(key)[-1]
        dst.cache.validate()

        dst.seal_at(LAST)
        for snapshot in (4, 9, LAST):
            served, expected = dst.lookup(keys, snapshot), src.lookup(keys, snapshot)
            assert np.array_equal(served.weights, expected.weights)
            assert (served.hits, served.cold) == (expected.hits, expected.cold)
        a, b = dst.pull(keys[:5], LAST + 1), src.pull(keys[:5], LAST + 1)
        assert np.array_equal(a.weights, b.weights)

    def test_reingest_replaces_and_versionless_keys_are_skipped(self):
        src = _trained()
        keys = sorted(src.owned_keys())
        dst = _node()
        assert dst.ingest_entries(src.export_entries(keys[:6])) == 6
        # A retried transfer (and a key the source holds no version of)
        assert dst.ingest_entries(src.export_entries(keys + [999])) == len(keys)
        assert _dump(keyed(dst)) == _dump(keyed(src))
        assert dst.cache.index.find(999) is None

    def test_scale_out_over_rpc_moves_what_it_moved_before(self):
        """``MigrationReport`` accounting, pinned from the nested-list
        implementation on the same schedule. Re-pinned when the ring
        became jump consistent hash: 13 of the 37 trained keys move onto
        the joining node, about its 1/3 share, where the 16-vnode ring
        under-filled it with 6 (6 / 10 / 320 before, and 7 / 11 / 352
        before the vnode positions took a second ``mix64``)."""
        client = RemotePSClient(
            ServerConfig(
                num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 24, seed=5,
            ),
            CacheConfig(capacity_bytes=6 * DIM * 4 * 2),
            PSAdagrad(lr=0.1),
        )
        rng = np.random.default_rng(3)
        for batch in range(9):
            keys = sorted(rng.choice(40, size=8, replace=False).tolist())
            client.pull(keys, batch)
            client.maintain(batch)
            client.push(keys, rng.normal(0, 0.1, (8, DIM)).astype(np.float32), batch)
            if batch in (2, 5):
                client.request_checkpoint(batch)
        report = client.scale_out()
        assert (report.keys_moved, report.versions_moved, report.bytes_moved) == (
            13, 18, 576,
        )


# ----------------------------------------------------------------------
# the docstring catalogue is the schema
# ----------------------------------------------------------------------


def _catalogue() -> dict[str, tuple[int, str]]:
    """``{kind: (type byte, body text)}`` parsed from the module table."""
    rows: dict[str, tuple[int, str]] = {}
    table = m.__doc__.split("Message catalogue:")[1].split("=\n\n")[0]
    name = None
    for line in table.splitlines():
        match = re.match(r"(\w+)\s+0x([0-9A-F]{2})\s+(.*)", line)
        if match:
            name = match[1]
            rows[name] = (int(match[2], 16), match[3])
        elif name and line.startswith(" " * 30):
            rows[name] = (rows[name][0], rows[name][1] + " " + line.strip())
    return rows


def _declared_names(wire) -> list[str]:
    names = list(wire.slots)
    if wire.text:
        names.append(wire.text)
    cases = [
        tuple(column.name.rpartition(".")[2] for column in case)
        for case in wire.cases.values()
    ]
    for leaves in dict.fromkeys(cases):  # (EXPORT and DELETE share their entry)
        names += leaves
    return names


class TestCatalogue:
    def test_one_row_per_kind_with_its_type_byte(self):
        rows = _catalogue()
        assert {name: byte for name, (byte, __) in rows.items()} == {
            kind.__name__: kind.TYPE for kind in KINDS
        }

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_row_states_the_declared_fields_in_order(self, kind):
        body = _catalogue()[kind.__name__][1]
        words = re.findall(r"(\w+) (?:[uif]\d+|utf8)\b", body)
        assert words == _declared_names(kind.WIRE)


# ----------------------------------------------------------------------
# every kind is sent and read
# ----------------------------------------------------------------------


def _built(module) -> set[str]:
    """Names a module's code calls: ``Kind(...)`` among them."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        call.func.id
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


@functools.cache
def _dispatched() -> dict[type, set[type]]:
    """``{request kind: reply kinds}``: one request of each kind (a
    ``MigrateRequest`` once per op) sent through a ``PSNodeService``
    over a replicated shard that holds a checkpoint, each reply decoded
    off the wire."""
    node = ReplicatedPSNode(
        0, ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=3),
        CacheConfig(capacity_bytes=8 * DIM * 4), PSSGD(lr=0.1), cluster_mode=True,
    )
    keys = _u64(1, 2, 3)
    node.pull(keys, 0)
    node.barrier_checkpoint(0)
    channel = RpcChannel(PSNodeService(node).server)
    requests = [
        m.PullRequest(batch_id=1, keys=keys),
        m.MaintainRequest(batch_id=1),
        m.PushRequest(batch_id=1, keys=keys, grads=_f32(3, DIM)),
        m.CheckpointRequest(batch_id=1),
        m.HeartbeatRequest(node_id=0),
        m.PromoteRequest(node_id=0),
        m.LookupRequest(snapshot_id=-1, keys=keys),
        m.MigrateRequest(op=m.MigrateRequest.OP_EXPORT, keys=keys),
        m.MigrateRequest(op=m.MigrateRequest.OP_DELETE, source=1, seq=1, keys=keys),
    ]
    replies: dict[type, set[type]] = {}
    for request in requests:
        reply = channel.call(request)
        replies.setdefault(type(request), set()).add(type(reply))
        if isinstance(reply, EntryBlock):  # the export's block goes back in
            put = m.MigrateRequest(
                op=m.MigrateRequest.OP_PUT, source=1, seq=2,
                width=reply.rows.shape[1], entries=reply,
            )
            replies[m.MigrateRequest].add(type(channel.call(put)))
    return replies


class TestNoDeadKind:
    """A kind with no sender is wire and handler code nothing runs (a
    ring-refresh RPC once had a client method, a handler and an error
    code, and no caller); a reply kind no handler returns is a second
    statement of a result nothing sends."""

    @staticmethod
    def _kinds() -> tuple[set[type], set[type]]:
        """The request kinds dispatched, and the kinds they replied with."""
        dispatched = _dispatched()
        return set(dispatched), set().union(*dispatched.values())

    def test_every_kind_is_a_request_or_a_response(self):
        requests, replies = self._kinds()
        assert not requests & replies
        assert requests | replies == set(KINDS)

    def test_every_request_kind_has_a_handler_and_a_sender(self):
        requests, __ = self._kinds()
        handled = set(PSNodeService(_node()).server._handlers)
        assert handled == {kind.TYPE for kind in requests}
        unsent = {kind.__name__ for kind in requests} - _built(frontend)
        assert not unsent, f"no RemotePSClient code sends {sorted(unsent)}"

    def test_every_response_kind_is_returned_by_a_handler(self):
        requests, replies = self._kinds()
        unreturned = {kind.__name__ for kind in set(KINDS) - requests - replies}
        assert not unreturned, f"no PSNodeService handler returns {sorted(unreturned)}"
        dispatched = _dispatched()
        assert dispatched[m.PullRequest] == {PullResult}
        assert dispatched[m.MaintainRequest] == {MaintainResult}
        assert dispatched[m.LookupRequest] == {LookupResult}
        assert dispatched[m.MigrateRequest] == {EntryBlock, m.StatusResponse}
