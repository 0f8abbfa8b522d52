"""Wire-format test material derived from the message schema.

Nothing here lists message kinds or fields: the kinds come from the
type registry of :mod:`repro.network.messages` and each kind's
hypothesis strategy is read off its ``WIRE`` declaration — header slots
draw from their integer type's full range, extents draw small sizes,
columns draw arrays of the declared dtype and shape. A kind added to
``messages.py`` is covered by every property that uses
:data:`MESSAGES` without touching the tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from repro.network import messages
from repro.pmem.space import EntryBlock

KINDS = tuple(messages._MESSAGE_TYPES.values())

_SLOT_RANGES = {
    "u8": st.integers(0, 2**8 - 1),
    "u16": st.integers(0, 2**16 - 1),
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),
    "i32": st.integers(-(2**31), 2**31 - 1),
    "i64": st.integers(-(2**63), 2**63 - 1),
}
_EXTENT = st.integers(0, 4)


@st.composite
def messages_of(draw, kind: type):
    """Any well-formed message of ``kind``, drawn from its declaration."""
    wire = kind.WIRE
    values: dict = {}
    if wire.switch is not None:
        values[wire.switch] = draw(st.sampled_from(sorted(wire.cases)))
    columns = wire.cases[values.get(wire.switch)]
    sized = {extent for column in columns for extent in column.shape}
    for slot, slot_type in wire.slot_types.items():
        if slot not in values:
            values[slot] = draw(_EXTENT if slot in sized else _SLOT_RANGES[slot_type])
    fields = {slot: values[slot] for slot in wire.field_slots}
    if wire.text is not None:
        fields[wire.text] = draw(st.text(max_size=40))
    block = {}
    for column in columns:
        shape = tuple(values[extent] for extent in column.shape)
        # A column whose sum is an extent holds small counts.
        elements = _EXTENT if column.sums_to else from_dtype(column.dtype)
        value = draw(arrays(column.dtype, shape, elements=elements))
        if column.sums_to:
            values[column.sums_to] = int(value.sum())
        group, __, leaf = column.name.rpartition(".")
        (block if group else fields)[leaf] = value
    if block:
        fields["entries"] = EntryBlock(**block)
    return kind(**fields)


MESSAGES = st.one_of(*(messages_of(kind) for kind in KINDS))

_U64 = _SLOT_RANGES["u64"]
CONTEXTS = st.builds(messages.TraceContext, trace_id=_U64, parent_span_id=_U64)


def _same(a, b) -> bool:
    if isinstance(a, EntryBlock) or isinstance(b, EntryBlock):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(EntryBlock)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        # Bit equality: NaN payloads and signed zeros must survive too.
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def assert_same_message(a, b) -> None:
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        assert _same(va, vb), f"{type(a).__name__}.{field.name}: {va!r} != {vb!r}"


def arrays_of(message):
    """Every ndarray a message carries, nested blocks included."""
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        if isinstance(value, np.ndarray):
            yield field.name, value
        elif dataclasses.is_dataclass(value):
            yield from arrays_of(value)
