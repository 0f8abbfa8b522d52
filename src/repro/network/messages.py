"""Binary wire messages for the PS protocol.

Every message is ``[1-byte type][4-byte LE body length][4-byte CRC32]
[body]``; bodies pack fixed little-endian headers followed by raw numpy
buffers, so the byte counts the simulator charges are the byte counts a
real implementation would move. When the high bit of the type byte
(:data:`CONTEXT_FLAG`) is set, a 16-byte :class:`TraceContext` prefix
(``trace_id u64, parent_span_id u64``) sits between the
header and the body — see :func:`decode_envelope`. The CRC covers the
type byte as sent (flag bit included), the context and the body, so
in-flight corruption (see
:class:`~repro.failure.network_faults.FaultyLink`) is always
detectable: a corrupt frame decodes to :class:`MessageError`, never to
silently wrong weights or to another kind of message.

**One statement per kind.** A kind states its body once, in ``WIRE``,
in the notation of the catalogue below: ``name type`` header slots,
then ``name type[extents]`` arrays whose extents name header slots. A
slot that is not a dataclass field is an *extent*: encoding reads it off
the arrays' shapes, decoding sizes the arrays with it. A request (and
the status ack) is a frozen dataclass of this module; a data reply is
the node's own result — :class:`~repro.core.cache.PullResult`,
:class:`~repro.core.cache.MaintainResult`,
:class:`~repro.pmem.space.EntryBlock` and
:class:`~repro.core.serving_backend.LookupResult` cross the wire as
themselves, each registered here once with its type byte and ``WIRE``
(``core/`` and ``pmem/`` import nothing from ``network/``). When a kind
is registered, that one declaration is compiled into the kind's own
straight-line ``encode_body`` / ``decode_body`` (as :mod:`dataclasses`
writes ``__init__``): the single-buffer encode, the exact-length check
(a truncated, trailing or extent-inconsistent body is a
:class:`MessageError` naming the kind) and the zero-copy decode views,
with no walk over the declaration per message. The type registry fills
itself from the same registrations, and the tests derive their per-kind
strategies from the declaration too.

Message catalogue:

======================  ====  =======================================
Message                 Type  Body
======================  ====  =======================================
PullRequest             0x01  batch_id u64, worker_id i32, progress i64,
                              n u32, keys u64[n]
PullResult              0x02  n u32, dim u32, hits u32, misses u32,
                              created u32, weights f32[n, dim]
PushRequest             0x03  batch_id u64, worker_id u32, seq u64,
                              n u32, dim u32,
                              keys u64[n], grads f32[n, dim]
CheckpointRequest       0x04  batch_id i64
StatusResponse          0x05  code u8, value i64, detail_len u16,
                              detail utf8[detail_len]
MaintainRequest         0x06  batch_id u64
MaintainResult          0x07  processed u32, loads u32, flushes u32,
                              evictions u32, checkpoints_completed u32
MigrateRequest          0x08  op u8, source u32, seq u64, width u32,
                              n u32, then keys u64[n] (EXPORT /
                              DELETE) or the entry block (PUT):
                              keys u64[n], nversions u32[n],
                              batch_ids i64[total],
                              rows f32[total, width]
EntryBlock              0x09  width u32, n u32, keys u64[n],
                              nversions u32[n], batch_ids i64[total],
                              rows f32[total, width] (EXPORT reply)
HeartbeatRequest        0x0B  node_id u32 (reply: StatusResponse,
                              value = latest batch; a dead primary
                              answers with silence)
PromoteRequest          0x0C  node_id u32 (reply:
                              StatusResponse, value = latest batch
                              after promotion)
LookupRequest           0x0D  snapshot_id i64, replica u8, pad[3],
                              n u32, keys u64[n]
LookupResult            0x0E  snapshot_id i64, n u32, dim u32,
                              hits u32, cold u32, weights f32[n, dim]
======================  ====  =======================================

The entry block is an :class:`~repro.pmem.space.EntryBlock` — the
columns a store exports are the arrays on the wire, with ``total =
nversions.sum()``; as a reply its ``width`` is an extent read off
``rows``. A :class:`~repro.core.serving_backend.LookupResult`'s
``row_snapshots`` belongs to the serving tier and is no wire field.
Type ``0x0A`` is unassigned.

``PushRequest``'s ``(worker_id, seq)`` header gives the server a dedup
identity: a retried push (the client never learned whether its first
copy applied) carries the same header, and
:class:`~repro.network.service.PSNodeService` suppresses the replay —
at-most-once gradient application under at-least-once delivery.
``seq == 0`` means "no dedup identity" (raw protocol users).

Ownership contract (zero-copy decode): array fields of decoded
messages — ``keys``, ``grads``, ``weights``, the columns of an entry
block — are **read-only views into the received frame**, not fresh
arrays, and a shard reply a client decodes is no exception. Decoding a
frame costs one CRC pass and a few ``np.frombuffer`` view
constructions, never a payload copy. Consumers
that need to mutate (or outlive the frame) must copy explicitly; writing
through a view raises ``ValueError: assignment destination is
read-only``, so a violation is loud, not silent. Encoding likewise
copies each payload byte once: the body is one ``join`` of the packed
header and the arrays' own buffers, never per-field ``tobytes``.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from repro.core.cache import MaintainResult, PullResult
from repro.core.serving_backend import LookupResult
from repro.errors import ReproError
from repro.pmem.space import NO_ENTRIES, EntryBlock

FRAME_HEADER = struct.Struct("<BII")
"""What precedes every frame's payload: type u8, payload length u32,
CRC32 u32."""

_MAX_DETAIL_BYTES = 512
"""Status detail strings are truncated to keep error frames bounded."""


class MessageError(ReproError):
    """Malformed or unexpected wire message."""


# ----------------------------------------------------------------------
# the schema: one declaration per kind, compiled into that kind's codec
# ----------------------------------------------------------------------

_SLOT_CODES = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "i32": "i", "i64": "q"}
_COLUMN_DTYPES = {"u32": "<u4", "u64": "<u8", "i64": "<i8", "f32": "<f4"}
_ITEM = re.compile(r"(?:([\w.]+) )?(\w+)(?:\[([\w, ]+)\])?")


class _Column(NamedTuple):
    """One typed array of a body: ``name type[extents]``."""

    #: Attribute path on the message: ``keys``, or ``entries.rows`` for
    #: a column of the message's :class:`EntryBlock`.
    name: str
    dtype: np.dtype
    shape: tuple[str, ...]  # its extents, by name
    sums_to: str | None  # the extent this column's sum defines


class _Wire:
    """One kind's body layout, parsed from its ``WIRE`` declaration.

    Args:
        body: the header slots, then the columns every body of the kind
            has — or one ``name utf8[len]`` string, the kind's last
            field, ``len`` being the last slot after the other fields in
            field order (:class:`StatusResponse`'s detail).
        switch: ``(slot, {value: columns})`` — further columns chosen
            by one header field (:class:`MigrateRequest`'s ``op``).
        sums: ``{column: extent}`` — an extent no header slot carries,
            defined as a column's sum (``total = nversions.sum()``).
    """

    def __init__(self, body: str, switch=None, sums=None):
        self.slot_types: dict[str, str] = {}
        self.text: str | None = None
        fmt = "<"
        for name, kind, extents in _ITEM.findall(body):
            if kind == "pad":
                fmt += "x" * int(extents)
            elif kind == "utf8":
                self.text = name
            elif not extents:
                fmt += _SLOT_CODES[kind]
                self.slot_types[name] = kind
        self.header = struct.Struct(fmt)
        self.slots = tuple(self.slot_types)
        #: The columns of a body, by the value of its switch slot (kinds
        #: without one keep theirs under None).
        self.switch, cases = switch or (None, {None: ""})
        self.cases = {
            value: _columns(f"{body}, {text}", sums or {})
            for value, text in cases.items()
        }

    def compile(self, cls: type) -> None:
        """Give ``cls`` an ``encode_body`` and a ``decode_body`` written
        out for this layout, the way :mod:`dataclasses` writes
        ``__init__``: every slot a local, every column one array call
        and one shape test, every offset an expression — no walk over
        the declaration when a message crosses the wire."""
        self.kind = cls.__name__
        self._fields = tuple(cls.__annotations__)
        self.field_slots = tuple(slot for slot in self.slots if slot in self._fields)
        self._scope = {
            "MessageError": MessageError, "EntryBlock": EntryBlock, "np": np,
            "join": b"".join, "utf8": _bounded_utf8, "bad_shape": _bad_shape,
            "pack": self.header.pack, "unpack_from": self.header.unpack_from,
        }
        encode, decode = self._text_codec() if self.text else self._column_codec()
        self.source = "\n".join(["def encode_body(self):", *encode,
                                 "def decode_body(cls, body):", *decode])
        exec(compile(self.source, f"<{self.kind} codec>", "exec"), self._scope)
        cls.encode_body = self._scope["encode_body"]
        cls.decode_body = classmethod(self._scope["decode_body"])

    def _column(self, column: _Column) -> str:
        """A scope name bound to ``column``; its dtype is ``<name>.dtype``."""
        name = f"col{len(self._scope)}"
        self._scope[name] = column
        return name

    def _unpack(self) -> str:
        return f"{''.join(f's_{slot}, ' for slot in self.slots)}= unpack_from(body)"

    def _build(self, fields: dict[str, str]) -> str:
        """The constructor call: positional up to the first field the
        body does not carry, by keyword after it."""
        args, keyword = [], False
        for name in self._fields:
            keyword |= name not in fields
            if name in fields:
                args.append(f"{name}={fields[name]}" if keyword else fields[name])
        return f"cls({', '.join(args)})"

    def _wrong_length(self, want) -> str:
        """The refusal of a body of ``size`` bytes (``want``: a count, or
        the expression that computes it)."""
        want = want if isinstance(want, int) else f"{{{want}}}"
        return f"raise MessageError(f'{self.kind} length {{size}}, want {want}')"

    def _text_codec(self) -> tuple[list[str], list[str]]:
        """Header slots, then the text its last slot measures."""
        size, length = self.header.size, f"{self.header.size} + s_{self.slots[-1]}"
        fields = {slot: f"s_{slot}" for slot in self.field_slots}
        fields[self.text] = f"bytes(body[{size}:]).decode('utf-8', errors='replace')"
        return [
            f"    text = utf8(self.{self.text})",
            f"    return pack({''.join(f'self.{s}, ' for s in self.field_slots)}len(text)) + text",
        ], [
            "    size = len(body)",
            f"    if size < {size}: raise MessageError('truncated {self.kind}')",
            f"    {self._unpack()}",
            f"    if size != {length}: {self._wrong_length(length)}",
            f"    return {self._build(fields)}",
        ]

    def _column_codec(self) -> tuple[list[str], list[str]]:
        """Header slots, then the columns (of the switch slot's case), if
        any."""
        encode = [f"    s_{slot} = self.{slot}" for slot in self.field_slots]
        decode = [
            "    size = len(body)",
            f"    if size < {self.header.size}: raise MessageError('truncated {self.kind}')",
            f"    {self._unpack()}",
        ]
        for value, columns in self.cases.items():
            indent = "    "
            if self.switch is not None:
                encode.append(f"    if s_{self.switch} == {value!r}:")
                decode.append(f"    if s_{self.switch} == {value!r}:")
                indent = "        "
            encode += [indent + line for line in self._encode_case(columns)]
            decode += [indent + line for line in self._decode_case(columns)]
        if self.switch is not None:
            unknown = f"raise MessageError(f'unknown {self.kind} {self.switch} {{s_{self.switch}}}')"
            encode.append(f"    {unknown}")
            decode.append(f"    {unknown}")
        return encode, decode

    def _encode_case(self, columns) -> list[str]:
        """Each column as one contiguous array of its dtype; the first
        array to name an extent sets it, the rest must agree."""
        known = {slot: f"s_{slot}" for slot in self.field_slots}
        lines = []
        for k, column in enumerate(columns):
            array, name = f"a{k}", self._column(column)
            lines.append(f"{array} = np.ascontiguousarray(self.{column.name}, {name}.dtype)")
            if column.sums_to:
                lines.append(f"s_{column.sums_to} = int({array}.sum())")
                known[column.sums_to] = f"s_{column.sums_to}"
            tests, new = [f"{array}.ndim != {len(column.shape)}"], {}
            for axis, extent in enumerate(column.shape):
                if extent in known or extent in new:
                    tests.append(f"{array}.shape[{axis}] != {known.get(extent) or new[extent]}")
                else:
                    new[extent] = f"{array}.shape[{axis}]"
            extents = ", ".join(f"{name!r}: {value}" for name, value in known.items())
            lines.append(
                f"if {' or '.join(tests)}: "
                f"raise bad_shape('{self.kind}', {name}, {array}, {{{extents}}})"
            )
            lines += [f"s_{extent} = {value}" for extent, value in new.items()]
            known.update((extent, f"s_{extent}") for extent in new)
        if missing := set(self.slots) - set(known):
            raise TypeError(f"{self.kind}: no column sizes {sorted(missing)}")
        header = ", ".join(f"s_{slot}" for slot in self.slots)
        parts = "".join(f"a{k}, " for k in range(len(columns)))
        return lines + [f"return join((pack({header}), {parts}))"]

    def _decode_case(self, columns) -> list[str]:
        """Each column a read-only view of ``body`` at its offset."""
        fields = {slot: f"s_{slot}" for slot in self.field_slots}
        blocks: dict[str, list[str]] = {}
        lines, end = [], self.header.size
        for k, column in enumerate(columns):
            array, start, end = f"a{k}", end, f"end{k}"
            count = " * ".join(f"s_{extent}" for extent in column.shape)
            name = self._column(column)
            lines += [
                f"{end} = {start} + {count} * {column.dtype.itemsize}",
                f"if {end} > size: raise MessageError('truncated {self.kind}.{column.name}')",
                f"{array} = np.frombuffer(body, {name}.dtype, {count}, {start})",
            ]
            if column.sums_to:
                lines.append(f"s_{column.sums_to} = int({array}.sum())")
            if len(column.shape) > 1:
                lines.append(f"{array} = {array}.reshape(({count.replace(' *', ',')}))")
            group, __, leaf = column.name.rpartition(".")
            if group:
                blocks.setdefault(group, []).append(f"{leaf}={array}")
            else:
                fields[leaf] = array
        for group, columns in blocks.items():
            fields[group] = f"EntryBlock({', '.join(columns)})"
        return lines + [
            f"if {end} != size: {self._wrong_length(end)}",
            f"return {self._build(fields)}",
        ]


def _columns(text: str, sums: dict[str, str]) -> tuple[_Column, ...]:
    """The ``name type[extents]`` array items of a declaration."""
    return tuple(
        _Column(
            name=name,
            dtype=np.dtype(_COLUMN_DTYPES[kind]),
            shape=tuple(extents.split(", ")),
            sums_to=sums.get(name),
        )
        for name, kind, extents in _ITEM.findall(text)
        if kind in _COLUMN_DTYPES and extents
    )


def _bad_shape(kind: str, column: _Column, array, extents: dict) -> MessageError:
    """The refusal of an array that does not fit its column's extents
    (``extents``: the ones known before it)."""
    sizes = tuple(map(extents.setdefault, column.shape, array.shape))
    return MessageError(
        f"{kind}.{column.name} has shape {array.shape}, not "
        f"[{', '.join(column.shape)}] = {sizes}"
    )


def _bounded_utf8(text: str) -> bytes:
    """``text`` as at most :data:`_MAX_DETAIL_BYTES` of valid UTF-8."""
    data = text.encode("utf-8")
    if len(data) > _MAX_DETAIL_BYTES:
        # Truncate at a character boundary: a raw byte slice can cut
        # a multibyte UTF-8 sequence in half, making the frame decode
        # to U+FFFD garbage. ``errors="ignore"`` drops only the
        # trailing partial sequence (the input is valid UTF-8).
        data = (
            data[:_MAX_DETAIL_BYTES].decode("utf-8", errors="ignore").encode("utf-8")
        )
    return data


_MESSAGE_TYPES: dict[int, type] = {}


def _kind(cls: type, type_byte: int, wire: _Wire) -> None:
    """Make ``cls`` the wire kind ``type_byte``, its body laid out as
    ``wire``: the declaration is compiled into the class's codec, then
    the type byte decodes to the class."""
    cls.TYPE, cls.WIRE = type_byte, wire
    wire.compile(cls)
    _MESSAGE_TYPES[type_byte] = cls


class _Message:
    """What every kind of this module shares: registration as a wire kind
    when the kind is created. ``encode_body()`` lays the message out in
    one buffer; ``decode_body(body)`` is its inverse, whose arrays are
    read-only views into ``body`` (the module's ownership contract) and
    which raises :class:`MessageError` when the body is truncated, has
    trailing bytes or its extents disagree with its length."""

    TYPE: ClassVar[int]
    WIRE: ClassVar[_Wire]

    def __init_subclass__(cls) -> None:
        _kind(cls, cls.TYPE, cls.WIRE)


# ----------------------------------------------------------------------
# the requests and the status ack
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PullRequest(_Message):
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
    WIRE = _Wire("batch_id u64, worker_id i32, progress i64, n u32, keys u64[n]")

    batch_id: int
    keys: np.ndarray  # u64[n]
    worker_id: int = -1  # -1 = anonymous (no admission tracking)
    progress: int = -1  # batches completed by the caller


ANONYMOUS_SEQ_BASE = 1 << 63
"""Where a client numbers the pushes it stamps itself (callers that
pass no ``worker_id``). Explicit ``(worker_id, seq)`` pushes count from
1, so the two halves of the u64 space never share a dedup identity —
a client's own pushes cannot shadow the first pushes of the logical
worker that happens to carry the client's id."""


@dataclass(frozen=True)
class PushRequest(_Message):
    """Worker -> PS: gradients for ``keys`` at batch ``batch_id``.

    ``(worker_id, seq)`` is the at-most-once dedup identity: retried
    copies of one logical push carry the same header. ``seq == 0``
    opts out of dedup (callers that never retry); client-stamped
    pushes use seqs above :data:`ANONYMOUS_SEQ_BASE`.
    """

    TYPE = 0x03
    WIRE = _Wire(
        "batch_id u64, worker_id u32, seq u64, n u32, dim u32, "
        "keys u64[n], grads f32[n, dim]"
    )

    batch_id: int
    keys: np.ndarray  # u64[n]
    grads: np.ndarray  # f32[n, dim]
    worker_id: int = 0
    seq: int = 0

    @property
    def dedup_key(self) -> tuple[int, int] | None:
        """The at-most-once identity, or None when dedup is opted out."""
        if self.seq == 0:
            return None
        return (self.worker_id, self.seq)


@dataclass(frozen=True)
class CheckpointRequest(_Message):
    """Trainer -> PS: snapshot the state as of ``batch_id``.

    ``batch_id`` is signed on the wire so an untrained cluster's ``-1``
    travels to the server and comes back as a typed
    :class:`~repro.errors.CheckpointError` through the error-coded
    response path instead of failing opaquely client-side.
    """

    TYPE = 0x04
    WIRE = _Wire("batch_id i64")

    batch_id: int


@dataclass(frozen=True)
class MaintainRequest(_Message):
    """Worker -> PS: run the deferred maintenance round for a batch.

    In the paper's system the maintainer threads live inside the PS
    process; this message is the trainer's *trigger* for the round (the
    batch boundary), so the remote client can account maintenance work
    exactly like the in-process server does. The operation is
    state-idempotent: a duplicate or retried trigger finds the batch's
    access queue already drained and performs no work.
    """

    TYPE = 0x06
    WIRE = _Wire("batch_id u64")

    batch_id: int


@dataclass(frozen=True)
class StatusResponse(_Message):
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
    WIRE = _Wire("code u8, value i64, detail_len u16, detail utf8[detail_len]")

    OK = 0
    ERR_INTERNAL = 1
    ERR_SERVER = 2
    ERR_CHECKPOINT = 3
    ERR_KEY_NOT_FOUND = 4
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

    @property
    def ok(self) -> bool:
        return self.code == self.OK

    @property
    def retryable(self) -> bool:
        """True when resending the same (pristine) frame can succeed."""
        return self.code == self.ERR_MESSAGE


_ENTRY_COLUMNS = "keys u64[n], nversions u32[n], batch_ids i64[total], rows f32[total, width]"
"""An :class:`~repro.pmem.space.EntryBlock` on the wire: its four
columns as they are, ``total = nversions.sum()``."""

_KEYS = "keys u64[n]"


@dataclass(frozen=True)
class MigrateRequest(_Message):
    """Coordinator -> PS: one step of a live shard migration.

    Three ops share the frame:

    * ``OP_EXPORT`` — read all retained versions of ``keys`` (reply:
      the :class:`~repro.pmem.space.EntryBlock` itself). Read-only,
      naturally idempotent.
    * ``OP_PUT`` — ingest ``entries`` on the new owner (reply:
      :class:`StatusResponse` with ``value`` = keys ingested).
      Node-level ingest is idempotent, and the ``(source, seq)`` header
      additionally dedups retried frames exactly like pushes.
    * ``OP_DELETE`` — drop ``keys`` from the old owner at cleanup
      (reply: :class:`StatusResponse` with ``value`` = keys dropped).
      Unknown keys are ignored, so replays are absorbed.

    ``width`` is floats per stored row (weights + optimizer state): the
    width of a PUT's rows, 0 on EXPORT and DELETE, whose frames carry
    no rows.
    """

    TYPE = 0x08

    OP_EXPORT = 0
    OP_PUT = 1
    OP_DELETE = 2

    WIRE = _Wire(
        "op u8, source u32, seq u64, width u32, n u32",
        # A PUT carries the block's columns as its ``entries`` field.
        switch=("op", {
            OP_EXPORT: _KEYS,
            OP_PUT: "entries." + _ENTRY_COLUMNS.replace("], ", "], entries."),
            OP_DELETE: _KEYS,
        }),
        sums={"entries.nversions": "total"},
    )

    op: int
    source: int = 0
    seq: int = 0
    width: int = 0
    keys: np.ndarray = ()  # u64[n] (EXPORT / DELETE)
    entries: EntryBlock = NO_ENTRIES  # (PUT)

    @property
    def dedup_key(self) -> tuple[int, int] | None:
        """The at-most-once identity, or None when dedup is opted out."""
        if self.seq == 0:
            return None
        return (self.source, self.seq)


@dataclass(frozen=True)
class HeartbeatRequest(_Message):
    """Detector -> PS: prove you are alive.

    The reply is a :class:`StatusResponse` whose ``value`` is the
    shard's ``latest_completed_batch`` (free liveness + progress in one
    round trip). A shard whose primary replica has crashed answers with
    *silence* — the service raises
    :class:`~repro.network.rpc.Unresponsive`, the dispatcher delivers
    no reply, and the probe times out exactly like a dead process's
    socket would. ``node_id`` names the probed shard: a kind carries at
    least one field.
    """

    TYPE = 0x0B
    WIRE = _Wire("node_id u32")

    node_id: int


@dataclass(frozen=True)
class PromoteRequest(_Message):
    """Detector -> PS: promote the backup replica to primary.

    ``node_id`` names the shard to promote: a kind carries at least one
    field. The promoted replica needs no routing state — routing is the
    client's partitioner, and the committed ring word is already on the
    backup's pool.

    The reply is a :class:`StatusResponse`: ``value`` = the shard's
    ``latest_completed_batch`` after promotion. Idempotent: promoting a
    shard whose primary is already alive (a duplicate or retried frame
    after a successful promotion) is a no-op acknowledged with
    ``value`` = current batch. A *double fault* (backup gone too)
    raises server-side and arrives as a typed wire error.
    """

    TYPE = 0x0C
    WIRE = _Wire("node_id u32")

    node_id: int


@dataclass(frozen=True)
class LookupRequest(_Message):
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
    WIRE = _Wire("snapshot_id i64, replica u8, pad[3], n u32, keys u64[n]")

    snapshot_id: int
    keys: np.ndarray  # u64[n]
    replica: int = 0


# ----------------------------------------------------------------------
# the data replies: what a node returns, as it is
# ----------------------------------------------------------------------

_kind(PullResult, 0x02, _Wire(
    "n u32, dim u32, hits u32, misses u32, created u32, weights f32[n, dim]"
))
_kind(MaintainResult, 0x07, _Wire(
    "processed u32, loads u32, flushes u32, evictions u32, checkpoints_completed u32"
))
_kind(EntryBlock, 0x09, _Wire(
    "width u32, n u32, " + _ENTRY_COLUMNS, sums={"nversions": "total"}
))
_kind(LookupResult, 0x0E, _Wire(
    "snapshot_id i64, n u32, dim u32, hits u32, cold u32, weights f32[n, dim]"
))


CONTEXT_FLAG = 0x80
"""High bit of the type byte: frame carries a trace context prefix.

Context-bearing frames are ``[type|0x80][4-byte LE length of
ctx+body][4-byte CRC32][16-byte ctx][body]`` where ctx is ``trace_id
u64, parent_span_id u64``. The CRC covers the flagged type
byte and the context bytes, so a flag or context corrupted in flight
surfaces as :class:`MessageError` (retryable) rather than a mis-parented
span. Senders only attach a context when tracing is enabled, so obs-off
wire traffic carries no flag and no prefix: a context costs exactly its
16 bytes, and a frame without one decodes with ``context=None``.
"""

_CONTEXT = struct.Struct("<QQ")


@dataclass(frozen=True)
class TraceContext:
    """Compact causal context carried on the wire ahead of the body."""

    trace_id: int
    parent_span_id: int

    def pack(self) -> bytes:
        return _CONTEXT.pack(
            self.trace_id & 0xFFFFFFFFFFFFFFFF, self.parent_span_id & 0xFFFFFFFFFFFFFFFF
        )

    @classmethod
    def unpack(cls, raw) -> "TraceContext":
        return cls(*_CONTEXT.unpack(raw))


_TYPE_CRC = tuple(zlib.crc32(bytes([type_byte])) for type_byte in range(256))
"""CRC32 of each possible type byte: where a frame's payload checksum
starts, so the type byte as sent (flag bit included) is covered with no
second pass over the payload. Without it a one-bit flip of byte 0
decodes clean as another kind of the same body size."""


def encode_frame(msg_type: int, body, context: TraceContext | None = None) -> bytes:
    """Frame an already-encoded body (lets retry loops reuse one body)."""
    if context is not None:
        msg_type |= CONTEXT_FLAG
        body = context.pack() + body
    crc = zlib.crc32(body, _TYPE_CRC[msg_type])
    return FRAME_HEADER.pack(msg_type, len(body), crc) + body


def encode_message(message, context: TraceContext | None = None) -> bytes:
    """Frame a message: type byte, length, CRC32, [context], body."""
    return encode_frame(message.TYPE, message.encode_body(), context)


def decode_envelope(data: bytes):
    """Decode one framed message plus its optional trace context.

    Returns ``(message, context)`` where ``context`` is ``None`` for
    frames without the :data:`CONTEXT_FLAG` bit.

    The body is handed to the kind's ``decode_body`` as a ``memoryview``:
    no slice copy, and array fields of the result are read-only views
    into ``data`` (the ownership contract in the module docstring).

    Raises:
        MessageError: unknown type, truncation, trailing bytes, or a
            checksum mismatch (the frame was corrupted in flight).
    """
    if len(data) < FRAME_HEADER.size:
        raise MessageError(f"frame too short: {len(data)} bytes")
    msg_type, length, crc = FRAME_HEADER.unpack_from(data)
    payload = memoryview(data)[FRAME_HEADER.size :]
    if len(payload) != length:
        raise MessageError(f"frame body {len(payload)} bytes, header says {length}")
    if zlib.crc32(payload, _TYPE_CRC[msg_type]) != crc:
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
