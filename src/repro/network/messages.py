"""Binary wire messages for the PS protocol.

Every message is ``[1-byte type][4-byte LE body length][4-byte CRC32 of
body][body]``; bodies pack fixed little-endian headers followed by raw
numpy buffers, so the byte counts the simulator charges are the byte
counts a real implementation would move. When the high bit of the type
byte (:data:`CONTEXT_FLAG`) is set, a 17-byte :class:`TraceContext`
prefix (``trace_id u64, parent_span_id u64, sampled u8``) sits between
the header and the body and is covered by the CRC — see
:func:`decode_envelope`. Context-free frames are unchanged, so old
decoders and obs-off traffic are unaffected. The checksum makes in-flight
corruption (see :class:`~repro.failure.network_faults.FaultyLink`)
always detectable: a corrupt frame decodes to :class:`MessageError`,
never to silently wrong weights.

Message catalogue:

======================  ====  =======================================
Message                 Type  Body
======================  ====  =======================================
PullRequest             0x01  batch_id u64, worker_id i32, progress i64,
                              nkeys u32, keys u64[n]
PullResponse            0x02  batch_id u64, nkeys u32, dim u32,
                              hits u32, misses u32, created u32,
                              weights f32[n*dim]
PushRequest             0x03  batch_id u64, worker_id u32, seq u64,
                              nkeys u32, dim u32,
                              keys u64[n], grads f32[n*dim]
CheckpointRequest       0x04  batch_id i64
StatusResponse          0x05  code u8, value i64, detail_len u16,
                              detail utf-8[detail_len]
MaintainRequest         0x06  batch_id u64
MaintainResponse        0x07  batch_id u64, processed u32, loads u32,
                              flushes u32, evictions u32,
                              checkpoints_completed u32
MigrateRequest          0x08  op u8, source u32, seq u64, width u32,
                              count u32, then keys u64[n] (EXPORT /
                              DELETE) or the columnar entry block
                              (PUT): keys u64[n], nversions u32[n],
                              batch_ids i64[total], f32[total*width]
MigrateResponse         0x09  width u32, count u32, columnar entry
                              block (EXPORT reply)
RingUpdateRequest       0x0A  requester u32 (reply: StatusResponse
                              whose value is the packed ring state)
HeartbeatRequest        0x0B  node_id u32, requester u32 (reply:
                              StatusResponse, value = latest batch;
                              a dead primary answers with silence)
PromoteRequest          0x0C  node_id u32, committed_epoch i64,
                              requester u32 (reply: StatusResponse,
                              value = latest batch after promotion)
LookupRequest           0x0D  snapshot_id i64, replica u8, pad[3],
                              nkeys u32, keys u64[n]
LookupResponse          0x0E  snapshot_id i64, nkeys u32, dim u32,
                              hits u32, cold u32, weights f32[n*dim]
======================  ====  =======================================

``PushRequest``'s ``(worker_id, seq)`` header gives the server a dedup
identity: a retried push (the client never learned whether its first
copy applied) carries the same header, and
:class:`~repro.network.service.PSNodeService` suppresses the replay —
at-most-once gradient application under at-least-once delivery.
``seq == 0`` means "no dedup identity" (raw protocol users).

Ownership contract (zero-copy decode): array fields of decoded
messages — ``keys``, ``grads``, ``weights``, migration ``stored`` rows
— are **read-only views into the received frame**, not fresh arrays.
Decoding a frame costs one CRC pass and a few ``np.frombuffer`` view
constructions, never a payload copy. Consumers that need to mutate (or
outlive the frame) must copy explicitly; writing through a view raises
``ValueError: assignment destination is read-only``, so a violation is
loud, not silent. Bulk encoders likewise assemble the body in a single
buffer with ``pack_into`` instead of concatenating per-field ``bytes``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

_HEADER = struct.Struct("<BII")

_MAX_DETAIL_BYTES = 512
"""Status detail strings are truncated to keep error frames bounded."""


class MessageError(ReproError):
    """Malformed or unexpected wire message."""


@dataclass(frozen=True)
class PullRequest:
    """Worker -> PS: fetch weights for ``keys`` at batch ``batch_id``.

    ``worker_id`` / ``progress`` identify the caller for the PS-side
    bounded-staleness admission check: ``progress`` is the number of
    batches the worker has completed, and the PS rejects the pull with
    :data:`StatusResponse.ERR_STALENESS` when that progress is more
    than the configured bound behind the slowest other admitted worker.
    ``worker_id=-1`` (the default) means anonymous — no progress is
    recorded and the pull is always admitted, which keeps the
    synchronous trainers and the serving tier byte-compatible with the
    pre-staleness wire semantics.
    """

    TYPE = 0x01

    batch_id: int
    keys: np.ndarray  # u64[n]
    worker_id: int = -1  # i32; -1 = anonymous (no admission tracking)
    progress: int = -1  # i64; batches completed by the caller

    _HEADER = "<QiqI"
    _HEADER_LEN = struct.calcsize(_HEADER)  # 24, keeps keys 8-aligned

    def encode_body(self) -> bytes:
        keys = np.ascontiguousarray(self.keys, dtype="<u8")
        body = bytearray(self._HEADER_LEN + keys.nbytes)
        struct.pack_into(
            self._HEADER, body, 0,
            self.batch_id, self.worker_id, self.progress, len(keys),
        )
        body[self._HEADER_LEN:] = memoryview(keys).cast("B")
        return body

    @classmethod
    def decode_body(cls, body) -> "PullRequest":
        if len(body) < cls._HEADER_LEN:
            raise MessageError("truncated PullRequest")
        batch_id, worker_id, progress, nkeys = struct.unpack_from(
            cls._HEADER, body
        )
        expected = cls._HEADER_LEN + 8 * nkeys
        if len(body) != expected:
            raise MessageError(f"PullRequest length {len(body)}, want {expected}")
        # Read-only view into the frame (ownership contract above).
        keys = np.frombuffer(
            body, dtype="<u8", count=nkeys, offset=cls._HEADER_LEN
        )
        return cls(
            batch_id=batch_id, keys=keys, worker_id=worker_id, progress=progress
        )


@dataclass(frozen=True)
class PullResponse:
    """PS -> worker: the requested weight rows plus cache statistics.

    The per-request ``hits`` / ``misses`` / ``created`` counters let the
    client aggregate real cache behaviour across shards instead of
    losing it at the wire boundary.
    """

    TYPE = 0x02

    batch_id: int
    weights: np.ndarray  # f32[n, dim]
    hits: int = 0
    misses: int = 0
    created: int = 0

    def encode_body(self) -> bytes:
        weights = np.ascontiguousarray(self.weights, dtype="<f4")
        if weights.ndim != 2:
            raise MessageError(f"weights must be 2-D, got shape {weights.shape}")
        n, dim = weights.shape
        body = bytearray(28 + weights.nbytes)
        struct.pack_into(
            "<QIIIII", body, 0, self.batch_id, n, dim,
            self.hits, self.misses, self.created,
        )
        body[28:] = memoryview(weights).cast("B")
        return body

    @classmethod
    def decode_body(cls, body) -> "PullResponse":
        if len(body) < 28:
            raise MessageError("truncated PullResponse")
        batch_id, n, dim, hits, misses, created = struct.unpack_from("<QIIIII", body)
        expected = 28 + 4 * n * dim
        if len(body) != expected:
            raise MessageError(f"PullResponse length {len(body)}, want {expected}")
        # Read-only view into the frame (ownership contract above).
        weights = np.frombuffer(body, dtype="<f4", count=n * dim, offset=28)
        return cls(
            batch_id=batch_id,
            weights=weights.reshape(n, dim),
            hits=hits,
            misses=misses,
            created=created,
        )


ANONYMOUS_SEQ_BASE = 1 << 63
"""Where a client numbers the pushes it stamps itself (callers that
pass no ``worker_id``). Explicit ``(worker_id, seq)`` pushes count from
1, so the two halves of the u64 space never share a dedup identity —
a client's own pushes cannot shadow the first pushes of the logical
worker that happens to carry the client's id."""


@dataclass(frozen=True)
class PushRequest:
    """Worker -> PS: gradients for ``keys`` at batch ``batch_id``.

    ``(worker_id, seq)`` is the at-most-once dedup identity: retried
    copies of one logical push carry the same header. ``seq == 0``
    opts out of dedup (callers that never retry); client-stamped
    pushes use seqs above :data:`ANONYMOUS_SEQ_BASE`.
    """

    TYPE = 0x03

    batch_id: int
    keys: np.ndarray  # u64[n]
    grads: np.ndarray  # f32[n, dim]
    worker_id: int = 0
    seq: int = 0

    def encode_body(self) -> bytes:
        keys = np.ascontiguousarray(self.keys, dtype="<u8")
        grads = np.ascontiguousarray(self.grads, dtype="<f4")
        if grads.ndim != 2 or grads.shape[0] != len(keys):
            raise MessageError(
                f"grads shape {grads.shape} inconsistent with {len(keys)} keys"
            )
        n, dim = grads.shape
        body = bytearray(28 + keys.nbytes + grads.nbytes)
        struct.pack_into(
            "<QIQII", body, 0, self.batch_id, self.worker_id, self.seq, n, dim
        )
        body[28 : 28 + keys.nbytes] = memoryview(keys).cast("B")
        body[28 + keys.nbytes :] = memoryview(grads).cast("B")
        return body

    @classmethod
    def decode_body(cls, body) -> "PushRequest":
        if len(body) < 28:
            raise MessageError("truncated PushRequest")
        batch_id, worker_id, seq, n, dim = struct.unpack_from("<QIQII", body)
        expected = 28 + 8 * n + 4 * n * dim
        if len(body) != expected:
            raise MessageError(f"PushRequest length {len(body)}, want {expected}")
        # Read-only views into the frame (ownership contract above): the
        # update path aggregates into fresh arrays and never writes back
        # through these.
        keys = np.frombuffer(body, dtype="<u8", count=n, offset=28)
        grads = np.frombuffer(body, dtype="<f4", count=n * dim, offset=28 + 8 * n)
        return cls(
            batch_id=batch_id,
            keys=keys,
            grads=grads.reshape(n, dim),
            worker_id=worker_id,
            seq=seq,
        )

    @property
    def dedup_key(self) -> tuple[int, int] | None:
        """The at-most-once identity, or None when dedup is opted out."""
        if self.seq == 0:
            return None
        return (self.worker_id, self.seq)


@dataclass(frozen=True)
class CheckpointRequest:
    """Trainer -> PS: snapshot the state as of ``batch_id``.

    ``batch_id`` is signed on the wire so an untrained cluster's ``-1``
    travels to the server and comes back as a typed
    :class:`~repro.errors.CheckpointError` through the error-coded
    response path instead of failing opaquely client-side.
    """

    TYPE = 0x04

    batch_id: int

    def encode_body(self) -> bytes:
        return struct.pack("<q", self.batch_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "CheckpointRequest":
        if len(body) != 8:
            raise MessageError(f"CheckpointRequest length {len(body)}, want 8")
        return cls(batch_id=struct.unpack("<q", body)[0])


@dataclass(frozen=True)
class MaintainRequest:
    """Worker -> PS: run the deferred maintenance round for a batch.

    In the paper's system the maintainer threads live inside the PS
    process; this message is the trainer's *trigger* for the round (the
    batch boundary), so the remote client can account maintenance work
    exactly like the in-process server does. The operation is
    state-idempotent: a duplicate or retried trigger finds the batch's
    access queue already drained and performs no work.
    """

    TYPE = 0x06

    batch_id: int

    def encode_body(self) -> bytes:
        return struct.pack("<Q", self.batch_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "MaintainRequest":
        if len(body) != 8:
            raise MessageError(f"MaintainRequest length {len(body)}, want 8")
        return cls(batch_id=struct.unpack("<Q", body)[0])


@dataclass(frozen=True)
class MaintainResponse:
    """PS -> worker: the maintenance round's counters.

    Mirrors :class:`~repro.core.cache.MaintainResult`, so the remote
    client reports the same per-shard maintenance accounting as the
    in-process server instead of losing it at the wire boundary.
    """

    TYPE = 0x07

    batch_id: int
    processed: int = 0
    loads: int = 0
    flushes: int = 0
    evictions: int = 0
    checkpoints_completed: int = 0

    def encode_body(self) -> bytes:
        return struct.pack(
            "<QIIIII",
            self.batch_id,
            self.processed,
            self.loads,
            self.flushes,
            self.evictions,
            self.checkpoints_completed,
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "MaintainResponse":
        if len(body) != 28:
            raise MessageError(f"MaintainResponse length {len(body)}, want 28")
        batch_id, processed, loads, flushes, evictions, completed = struct.unpack(
            "<QIIIII", body
        )
        return cls(
            batch_id=batch_id,
            processed=processed,
            loads=loads,
            flushes=flushes,
            evictions=evictions,
            checkpoints_completed=completed,
        )


@dataclass(frozen=True)
class StatusResponse:
    """PS -> caller: an ack carrying a status code, integer and detail.

    Non-``OK`` codes are the wire-error discipline: server-side
    exceptions never cross the link as raw Python exceptions — they
    arrive as one of these codes plus a human-readable ``detail``, and
    :class:`~repro.network.rpc.RpcChannel` re-raises the matching typed
    error client-side. ``ERR_MESSAGE`` (the frame was damaged in
    flight) is the one *retryable* code: the client still holds the
    pristine frame, so resending can succeed.
    """

    TYPE = 0x05

    OK = 0
    ERR_INTERNAL = 1
    ERR_SERVER = 2
    ERR_CHECKPOINT = 3
    ERR_KEY_NOT_FOUND = 4
    ERR_ROUTING = 5
    ERR_MESSAGE = 6
    ERR_UNHANDLED = 7
    #: Promotion impossible: double fault — both replicas of the shard
    #: are gone; the caller must fall back to checkpoint recovery.
    ERR_FAILOVER = 8
    #: Bounded-staleness admission rejected the pull: the caller's
    #: progress is more than the configured bound behind the slowest
    #: other admitted worker. Not retryable as-is — the same frame
    #: carries the same stale progress; the worker must fast-forward.
    ERR_STALENESS = 9

    code: int
    value: int = 0
    detail: str = ""

    def encode_body(self) -> bytes:
        detail = self.detail.encode("utf-8")
        if len(detail) > _MAX_DETAIL_BYTES:
            # Truncate at a character boundary: a raw byte slice can cut
            # a multibyte UTF-8 sequence in half, making the frame decode
            # to U+FFFD garbage. ``errors="ignore"`` drops only the
            # trailing partial sequence (the input is valid UTF-8).
            detail = (
                detail[:_MAX_DETAIL_BYTES]
                .decode("utf-8", errors="ignore")
                .encode("utf-8")
            )
        return struct.pack("<BqH", self.code, self.value, len(detail)) + detail

    @classmethod
    def decode_body(cls, body) -> "StatusResponse":
        if len(body) < 11:
            raise MessageError(f"StatusResponse length {len(body)}, want >= 11")
        code, value, detail_len = struct.unpack_from("<BqH", body)
        expected = 11 + detail_len
        if len(body) != expected:
            raise MessageError(f"StatusResponse length {len(body)}, want {expected}")
        detail = bytes(body[11:]).decode("utf-8", errors="replace")
        return cls(code=code, value=value, detail=detail)

    @property
    def ok(self) -> bool:
        return self.code == self.OK

    @property
    def retryable(self) -> bool:
        """True when resending the same (pristine) frame can succeed."""
        return self.code == self.ERR_MESSAGE


def _encode_entries(entries, width: int) -> bytes:
    """Pack ``[(key, [(batch_id, stored), ...]), ...]`` (migration payload).

    Columnar layout: ``keys u64[count]``, ``nversions u32[count]``,
    ``batch_ids i64[total]``, ``payload f32[total * width]`` — four raw
    buffers instead of per-key-per-version struct packing, so encoding
    a large transfer is four ``tobytes`` calls, not thousands.

    ``width`` is the float count of each stored array (weights +
    optimizer state); ``0`` means metadata-only (no payload floats).
    """
    count = len(entries)
    keys = np.empty(count, dtype="<u8")
    nversions = np.empty(count, dtype="<u4")
    batch_ids: list[int] = []
    payloads: list[np.ndarray] = []
    for i, (key, versions) in enumerate(entries):
        keys[i] = int(key)
        nversions[i] = len(versions)
        for batch_id, stored in versions:
            batch_ids.append(int(batch_id))
            if width:
                arr = np.ascontiguousarray(stored, dtype="<f4")
                if arr.shape != (width,):
                    raise MessageError(
                        f"stored entry shape {arr.shape}, want ({width},)"
                    )
                payloads.append(arr)
    parts = [
        keys.tobytes(),
        nversions.tobytes(),
        np.asarray(batch_ids, dtype="<i8").tobytes(),
    ]
    if payloads:
        parts.append(np.concatenate(payloads).tobytes())
    return b"".join(parts)


def _decode_entries(body, offset: int, count: int, width: int):
    """Inverse of :func:`_encode_entries`; returns ``(entries, offset)``.

    Decoded ``stored`` rows are read-only views into the frame's payload
    block (ownership contract in the module docstring); the PMem pool
    copies on write, so ingesting them is safe without a decode copy.
    """
    if len(body) < offset + 12 * count:
        raise MessageError("truncated migration entry table")
    keys = np.frombuffer(body, dtype="<u8", count=count, offset=offset)
    offset += 8 * count
    nversions = np.frombuffer(body, dtype="<u4", count=count, offset=offset)
    offset += 4 * count
    total = int(nversions.sum())
    if len(body) < offset + 8 * total:
        raise MessageError("truncated migration batch ids")
    batch_ids = np.frombuffer(body, dtype="<i8", count=total, offset=offset)
    offset += 8 * total
    payload = None
    if width:
        if len(body) < offset + 4 * total * width:
            raise MessageError("truncated migration payload")
        payload = np.frombuffer(
            body, dtype="<f4", count=total * width, offset=offset
        ).reshape(total, width)
        offset += 4 * total * width
    entries = []
    pos = 0
    for i in range(count):
        n = int(nversions[i])
        versions = [
            (int(batch_ids[j]), payload[j] if width else None)
            for j in range(pos, pos + n)
        ]
        pos += n
        entries.append((int(keys[i]), versions))
    return entries, offset


@dataclass(frozen=True)
class MigrateRequest:
    """Coordinator -> PS: one step of a live shard migration.

    Three ops share the frame:

    * ``OP_EXPORT`` — read all retained versions of ``keys`` (reply:
      :class:`MigrateResponse`). Read-only, naturally idempotent.
    * ``OP_PUT`` — ingest ``entries`` on the new owner (reply:
      :class:`StatusResponse` with ``value`` = keys ingested).
      Node-level ingest is idempotent, and the ``(source, seq)`` header
      additionally dedups retried frames exactly like pushes.
    * ``OP_DELETE`` — drop ``keys`` from the old owner at cleanup
      (reply: :class:`StatusResponse` with ``value`` = keys dropped).
      Unknown keys are ignored, so replays are absorbed.

    ``width`` is floats per stored array (weights + optimizer state);
    ``0`` means metadata-only.
    """

    TYPE = 0x08

    OP_EXPORT = 0
    OP_PUT = 1
    OP_DELETE = 2

    op: int
    source: int = 0
    seq: int = 0
    width: int = 0
    keys: tuple = ()
    entries: tuple = ()

    def encode_body(self) -> bytes:
        if self.op == self.OP_PUT:
            count = len(self.entries)
            payload = _encode_entries(self.entries, self.width)
        elif self.op in (self.OP_EXPORT, self.OP_DELETE):
            count = len(self.keys)
            keys = np.ascontiguousarray(np.asarray(self.keys, dtype="<u8"))
            payload = keys.tobytes()
        else:
            raise MessageError(f"unknown migrate op {self.op}")
        return (
            struct.pack("<BIQII", self.op, self.source, self.seq, self.width, count)
            + payload
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "MigrateRequest":
        if len(body) < 21:
            raise MessageError("truncated MigrateRequest")
        op, source, seq, width, count = struct.unpack_from("<BIQII", body)
        offset = 21
        if op == cls.OP_PUT:
            entries, offset = _decode_entries(body, offset, count, width)
            if offset != len(body):
                raise MessageError("trailing bytes in MigrateRequest")
            return cls(
                op=op, source=source, seq=seq, width=width,
                entries=tuple(entries),
            )
        if op in (cls.OP_EXPORT, cls.OP_DELETE):
            expected = offset + 8 * count
            if len(body) != expected:
                raise MessageError(
                    f"MigrateRequest length {len(body)}, want {expected}"
                )
            keys = np.frombuffer(body, dtype="<u8", count=count, offset=offset)
            return cls(
                op=op, source=source, seq=seq, width=width,
                keys=tuple(int(k) for k in keys),
            )
        raise MessageError(f"unknown migrate op {op}")

    @property
    def dedup_key(self) -> tuple[int, int] | None:
        """The at-most-once identity, or None when dedup is opted out."""
        if self.seq == 0:
            return None
        return (self.source, self.seq)


@dataclass(frozen=True)
class MigrateResponse:
    """PS -> coordinator: the exported entries (``OP_EXPORT`` reply)."""

    TYPE = 0x09

    width: int = 0
    entries: tuple = ()

    def encode_body(self) -> bytes:
        return (
            struct.pack("<II", self.width, len(self.entries))
            + _encode_entries(self.entries, self.width)
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "MigrateResponse":
        if len(body) < 8:
            raise MessageError("truncated MigrateResponse")
        width, count = struct.unpack_from("<II", body)
        entries, offset = _decode_entries(body, 8, count, width)
        if offset != len(body):
            raise MessageError("trailing bytes in MigrateResponse")
        return cls(width=width, entries=tuple(entries))


@dataclass(frozen=True)
class HeartbeatRequest:
    """Detector -> PS: prove you are alive.

    The reply is a :class:`StatusResponse` whose ``value`` is the
    shard's ``latest_completed_batch`` (free liveness + progress in one
    round trip). A shard whose primary replica has crashed answers with
    *silence* — the service raises
    :class:`~repro.network.rpc.Unresponsive`, the dispatcher delivers
    no reply, and the probe times out exactly like a dead process's
    socket would.
    """

    TYPE = 0x0B

    node_id: int
    requester: int = 0

    def encode_body(self) -> bytes:
        return struct.pack("<II", self.node_id, self.requester)

    @classmethod
    def decode_body(cls, body: bytes) -> "HeartbeatRequest":
        if len(body) != 8:
            raise MessageError(f"HeartbeatRequest length {len(body)}, want 8")
        node_id, requester = struct.unpack("<II", body)
        return cls(node_id=node_id, requester=requester)


@dataclass(frozen=True)
class PromoteRequest:
    """Detector -> PS: promote the backup replica to primary.

    Carries the coordinator's ``committed_epoch`` (the durable ring
    word's epoch) so the promoted replica reconciles its routing epoch
    at the commit point — a primary that died mid-migration cannot
    leave the promoted backup serving stale routing.

    The reply is a :class:`StatusResponse`: ``value`` = the shard's
    ``latest_completed_batch`` after promotion. Idempotent: promoting a
    shard whose primary is already alive (a duplicate or retried frame
    after a successful promotion) is a no-op acknowledged with
    ``value`` = current batch. A *double fault* (backup gone too)
    raises server-side and arrives as a typed wire error.
    """

    TYPE = 0x0C

    node_id: int
    committed_epoch: int = 0
    requester: int = 0

    def encode_body(self) -> bytes:
        return struct.pack("<IqI", self.node_id, self.committed_epoch, self.requester)

    @classmethod
    def decode_body(cls, body: bytes) -> "PromoteRequest":
        if len(body) != 16:
            raise MessageError(f"PromoteRequest length {len(body)}, want 16")
        node_id, committed_epoch, requester = struct.unpack("<IqI", body)
        return cls(
            node_id=node_id, committed_epoch=committed_epoch, requester=requester
        )


@dataclass(frozen=True)
class RingUpdateRequest:
    """Worker -> coordinator PS: fetch the committed ring state.

    The reply is a :class:`StatusResponse` whose ``value`` carries the
    packed ring word (:func:`repro.core.sharding.pack_ring_state` —
    epoch, num_nodes, vnodes). A client that hits a routing error after
    a migration refreshes its partitioner with this and retries.
    """

    TYPE = 0x0A

    requester: int = 0

    def encode_body(self) -> bytes:
        return struct.pack("<I", self.requester)

    @classmethod
    def decode_body(cls, body: bytes) -> "RingUpdateRequest":
        if len(body) != 4:
            raise MessageError(f"RingUpdateRequest length {len(body)}, want 4")
        return cls(requester=struct.unpack("<I", body)[0])


@dataclass(frozen=True)
class LookupRequest:
    """Serving client -> PS: snapshot-pinned batched read (inference).

    ``snapshot_id`` is the Checkpointed Batch ID the read is pinned to
    (``-1`` asks the shard to pin to its newest completed checkpoint and
    report the pin back in the response). ``replica`` picks the serving
    replica on a replicated shard (0 = primary, 1 = backup); plain
    shards ignore it. Lookups are pure reads — naturally idempotent, so
    unlike pushes they need no dedup identity: a retried frame simply
    reads the same snapshot again.
    """

    TYPE = 0x0D

    snapshot_id: int
    keys: np.ndarray  # u64[n]
    replica: int = 0

    def encode_body(self) -> bytes:
        keys = np.ascontiguousarray(self.keys, dtype="<u8")
        body = bytearray(16 + keys.nbytes)
        struct.pack_into(
            "<qBxxxI", body, 0, self.snapshot_id, self.replica, len(keys)
        )
        body[16:] = memoryview(keys).cast("B")
        return body

    @classmethod
    def decode_body(cls, body) -> "LookupRequest":
        if len(body) < 16:
            raise MessageError("truncated LookupRequest")
        snapshot_id, replica, nkeys = struct.unpack_from("<qBxxxI", body)
        expected = 16 + 8 * nkeys
        if len(body) != expected:
            raise MessageError(f"LookupRequest length {len(body)}, want {expected}")
        # Read-only view into the frame (ownership contract above).
        keys = np.frombuffer(body, dtype="<u8", count=nkeys, offset=16)
        return cls(snapshot_id=snapshot_id, keys=keys, replica=replica)


@dataclass(frozen=True)
class LookupResponse:
    """PS -> serving client: the snapshot-pinned weight rows.

    ``snapshot_id`` echoes the pin the shard actually served (resolving
    a ``-1`` request pin), so the client can enforce its staleness bound
    and record per-row provenance. ``hits`` / ``cold`` split rows served
    from durable versions vs the deterministic cold-key initializer.
    """

    TYPE = 0x0E

    snapshot_id: int
    weights: np.ndarray  # f32[n, dim]
    hits: int = 0
    cold: int = 0

    def encode_body(self) -> bytes:
        weights = np.ascontiguousarray(self.weights, dtype="<f4")
        if weights.ndim != 2:
            raise MessageError(f"weights must be 2-D, got shape {weights.shape}")
        n, dim = weights.shape
        body = bytearray(24 + weights.nbytes)
        struct.pack_into(
            "<qIIII", body, 0, self.snapshot_id, n, dim, self.hits, self.cold
        )
        body[24:] = memoryview(weights).cast("B")
        return body

    @classmethod
    def decode_body(cls, body) -> "LookupResponse":
        if len(body) < 24:
            raise MessageError("truncated LookupResponse")
        snapshot_id, n, dim, hits, cold = struct.unpack_from("<qIIII", body)
        expected = 24 + 4 * n * dim
        if len(body) != expected:
            raise MessageError(f"LookupResponse length {len(body)}, want {expected}")
        # Read-only view into the frame (ownership contract above).
        weights = np.frombuffer(body, dtype="<f4", count=n * dim, offset=24)
        return cls(
            snapshot_id=snapshot_id,
            weights=weights.reshape(n, dim),
            hits=hits,
            cold=cold,
        )


_MESSAGE_TYPES = {
    cls.TYPE: cls
    for cls in (
        PullRequest,
        PullResponse,
        PushRequest,
        CheckpointRequest,
        StatusResponse,
        MaintainRequest,
        MaintainResponse,
        MigrateRequest,
        MigrateResponse,
        RingUpdateRequest,
        HeartbeatRequest,
        PromoteRequest,
        LookupRequest,
        LookupResponse,
    )
}


CONTEXT_FLAG = 0x80
"""High bit of the type byte: frame carries a trace context prefix.

Context-bearing frames are ``[type|0x80][4-byte LE length of
ctx+body][4-byte CRC32 of ctx+body][17-byte ctx][body]`` where ctx is
``trace_id u64, parent_span_id u64, sampled u8``. The CRC covers the
context bytes, so a context corrupted in flight surfaces as
:class:`MessageError` (retryable) rather than a mis-parented span.
Frames without the flag are the original layout byte for byte — old
frames decode with ``context=None``, and senders only attach a context
when tracing is enabled, so obs-off wire traffic is bit-identical to
the pre-context protocol.
"""

_CONTEXT = struct.Struct("<QQB")


@dataclass(frozen=True)
class TraceContext:
    """Compact causal context carried on the wire ahead of the body."""

    trace_id: int
    parent_span_id: int
    sampled: bool = True

    def pack(self) -> bytes:
        return _CONTEXT.pack(
            self.trace_id & 0xFFFFFFFFFFFFFFFF,
            self.parent_span_id & 0xFFFFFFFFFFFFFFFF,
            1 if self.sampled else 0,
        )

    @classmethod
    def unpack(cls, raw) -> "TraceContext":
        trace_id, parent_span_id, sampled = _CONTEXT.unpack(raw)
        if sampled > 1:
            # Encoders only ever write 0 or 1. Anything else means the
            # CONTEXT_FLAG bit was set by corruption (the type byte is
            # outside the CRC) and these 17 bytes are really body data.
            raise MessageError(
                f"trace context sampled byte 0x{sampled:02x} is not a flag"
            )
        return cls(trace_id, parent_span_id, bool(sampled))


def encode_frame(msg_type: int, body, context: TraceContext | None = None) -> bytes:
    """Frame an already-encoded body (lets retry loops reuse one body)."""
    if context is None:
        return _HEADER.pack(msg_type, len(body), zlib.crc32(body)) + body
    payload = context.pack() + body
    return (
        _HEADER.pack(msg_type | CONTEXT_FLAG, len(payload), zlib.crc32(payload))
        + payload
    )


def encode_message(message, context: TraceContext | None = None) -> bytes:
    """Frame a message: type byte, length, CRC32, [context], body."""
    return encode_frame(message.TYPE, message.encode_body(), context)


def decode_envelope(data: bytes):
    """Decode one framed message plus its optional trace context.

    Returns ``(message, context)`` where ``context`` is ``None`` for
    frames without the :data:`CONTEXT_FLAG` bit (all pre-context
    senders, and context-free senders today).

    The body is handed to the per-message decoder as a ``memoryview``:
    no slice copy, and array fields of the result are read-only views
    into ``data`` (the ownership contract in the module docstring).

    Raises:
        MessageError: unknown type, truncation, trailing bytes, or a
            checksum mismatch (the frame was corrupted in flight).
    """
    if len(data) < _HEADER.size:
        raise MessageError(f"frame too short: {len(data)} bytes")
    msg_type, length, crc = _HEADER.unpack_from(data)
    payload = memoryview(data)[_HEADER.size :]
    if len(payload) != length:
        raise MessageError(f"frame body {len(payload)} bytes, header says {length}")
    if zlib.crc32(payload) != crc:
        raise MessageError(
            f"frame checksum mismatch (type 0x{msg_type:02x}, {length} bytes)"
        )
    context = None
    body = payload
    if msg_type & CONTEXT_FLAG:
        msg_type &= ~CONTEXT_FLAG
        if length < _CONTEXT.size:
            raise MessageError(
                f"context frame too short for trace context: {length} bytes"
            )
        context = TraceContext.unpack(payload[: _CONTEXT.size])
        body = payload[_CONTEXT.size :]
    if msg_type not in _MESSAGE_TYPES:
        raise MessageError(f"unknown message type 0x{msg_type:02x}")
    return _MESSAGE_TYPES[msg_type].decode_body(body), context


def decode_message(data: bytes):
    """Decode one framed message, discarding any trace context.

    See :func:`decode_envelope` for the zero-copy ownership contract
    and the error conditions.
    """
    return decode_envelope(data)[0]
