"""Regression tests for the hot-path accounting and dtype bugfixes.

Covers the four bugs fixed alongside the arena refactor:

* decoded wire arrays are read-only views — the ownership contract is
  explicit and the update path works without mutating them;
* ``metrics.updates`` counts distinct entries (duplicates aggregate);
* a float64 gradient cannot perturb the float32 arithmetic;
* ``StatusResponse`` detail truncation respects UTF-8 boundaries.

Plus a deterministic roundtrip of the columnar migration payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad, PSSGD
from repro.core.ps_node import PSNode
from repro.network.messages import (
    MigrateRequest,
    MigrateResponse,
    PushRequest,
    StatusResponse,
    decode_message,
    encode_message,
)
from repro.pmem.space import NO_ENTRIES, EntryBlock

DIM = 4


def make_node(optimizer=None) -> PSNode:
    entry_bytes = (DIM + (optimizer or PSSGD()).state_width(DIM)) * 4
    return PSNode(
        0,
        ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=3),
        CacheConfig(capacity_bytes=64 * entry_bytes),
        optimizer or PSSGD(lr=0.5),
    )


class TestReadonlyWirePush:
    def test_decoded_grads_are_readonly(self):
        msg = PushRequest(
            batch_id=0,
            keys=np.array([1, 2], dtype=np.uint64),
            grads=np.ones((2, DIM), dtype=np.float32),
        )
        decoded = decode_message(bytes(encode_message(msg)))
        with pytest.raises(ValueError):
            decoded.grads[0, 0] = 9.0
        with pytest.raises(ValueError):
            decoded.keys[0] = 9

    def test_push_through_wire_path_matches_mutable_twin(self):
        """The update path must not require writable request arrays:
        pushing decoded (frozen) views lands the same bits as pushing a
        writable copy — including with duplicate keys, where the
        aggregation adds rows together."""
        keys = [3, 5, 3, 7]
        rng = np.random.default_rng(11)
        grads = rng.standard_normal((len(keys), DIM)).astype(np.float32)
        frame = bytes(
            encode_message(
                PushRequest(
                    batch_id=0,
                    keys=np.asarray(keys, dtype=np.uint64),
                    grads=grads,
                )
            )
        )
        decoded = decode_message(frame)
        assert not decoded.grads.flags.writeable

        wire_node = make_node()
        twin_node = make_node()
        for node in (wire_node, twin_node):
            node.pull(keys, 0)
            node.maintain(0)
        wire_node.push(decoded.keys, decoded.grads, 0)
        twin_node.push(list(keys), grads.copy(), 0)
        for key in set(keys):
            assert np.array_equal(
                wire_node.cache.read_current_weights(key),
                twin_node.cache.read_current_weights(key),
            )


class TestDistinctUpdateAccounting:
    def test_duplicate_keys_count_once(self):
        node = make_node()
        keys = [1, 1, 2, 1, 2]
        node.pull(keys, 0)
        node.maintain(0)
        before = node.metrics.updates
        updated = node.push(
            keys, np.ones((len(keys), DIM), dtype=np.float32), 0
        )
        assert updated == 2  # distinct entries
        assert node.metrics.updates - before == updated


class TestDtypeStability:
    def test_adagrad_float64_gradient_matches_float32(self):
        """A float64 gradient used to make ``state += grad * grad``
        compute in float64 and truncate back — different bits from the
        float32 path. The aggregation-boundary coercion removes that."""
        opt = PSAdagrad(lr=0.1)
        w32 = np.full(DIM, 0.5, dtype=np.float32)
        s32 = opt.init_state(DIM)
        w64 = w32.copy()
        s64 = opt.init_state(DIM)
        g32 = np.full(DIM, 0.3, dtype=np.float32)
        for __ in range(10):
            opt.apply(w32, s32, g32)
            opt.apply(w64, s64, g32.astype(np.float64))
        assert w32.dtype == w64.dtype == np.float32
        assert np.array_equal(w32, w64)
        assert np.array_equal(s32, s64)

    def test_node_push_float64_matches_float32(self):
        a = make_node(PSAdagrad(lr=0.1))
        b = make_node(PSAdagrad(lr=0.1))
        keys = [1, 2, 1]
        grads = np.random.default_rng(5).standard_normal((3, DIM)).astype(np.float32)
        for node, g in ((a, grads), (b, grads.astype(np.float64))):
            node.pull(keys, 0)
            node.maintain(0)
            node.push(keys, g, 0)
        for key in (1, 2):
            assert np.array_equal(
                a.cache.read_current_weights(key),
                b.cache.read_current_weights(key),
            )


class TestDetailTruncation:
    def test_truncation_respects_utf8_boundaries(self):
        """A raw 512-byte slice can split a multibyte character; the
        frame must decode to clean UTF-8 with no replacement chars."""
        msg = StatusResponse(StatusResponse.ERR_INTERNAL, detail="é" * 300)
        decoded = decode_message(bytes(encode_message(msg)))
        assert "�" not in decoded.detail
        assert decoded.detail == "é" * 256  # 512 bytes / 2 bytes per char

    def test_short_detail_unchanged(self):
        msg = StatusResponse(StatusResponse.OK, detail="fine")
        decoded = decode_message(bytes(encode_message(msg)))
        assert decoded.detail == "fine"

    def test_boundary_exact(self):
        msg = StatusResponse(StatusResponse.OK, detail="a" * 512)
        decoded = decode_message(bytes(encode_message(msg)))
        assert decoded.detail == "a" * 512


class TestColumnarMigratePayload:
    def test_put_roundtrip(self):
        width = 6
        entries = EntryBlock(
            keys=np.array([7, 9], dtype=np.uint64),
            nversions=np.array([1, 2], dtype=np.uint32),
            batch_ids=np.array([0, 1, 4], dtype=np.int64),
            rows=np.stack([
                np.arange(width, dtype=np.float32),
                np.full(width, 2.0, dtype=np.float32),
                np.full(width, 3.0, dtype=np.float32),
            ]),
        )
        msg = MigrateRequest(
            op=MigrateRequest.OP_PUT, source=1, seq=5, width=width, entries=entries
        )
        decoded = decode_message(bytes(encode_message(msg)))
        assert decoded.op == MigrateRequest.OP_PUT
        assert len(decoded.entries) == 2
        assert decoded.entries.keys.tolist() == [7, 9]
        assert decoded.entries.nversions.tolist() == [1, 2]
        assert decoded.entries.batch_ids.tolist() == [0, 1, 4]
        assert np.array_equal(decoded.entries.rows, entries.rows)
        assert not decoded.entries.rows.flags.writeable  # zero-copy frame view

    def test_empty_payload(self):
        decoded = decode_message(
            bytes(encode_message(MigrateResponse(entries=NO_ENTRIES)))
        )
        assert len(decoded.entries) == 0 and decoded.entries.batch_ids.size == 0
