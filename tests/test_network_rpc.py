"""Wire messages, RPC channel, and the remote PS frontend."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.server import OpenEmbeddingServer
from repro.network.frontend import RemotePSClient
from repro.network.messages import (
    CheckpointRequest,
    MessageError,
    PullRequest,
    PullResponse,
    PushRequest,
    StatusResponse,
    decode_message,
    encode_message,
)
from repro.network.rpc import RpcChannel, RpcServer

DIM = 4


class TestMessageRoundtrips:
    def test_pull_request(self):
        msg = PullRequest(batch_id=7, keys=np.array([1, 2, 3], dtype=np.uint64))
        decoded = decode_message(encode_message(msg))
        assert decoded.batch_id == 7
        assert np.array_equal(decoded.keys, msg.keys)
        # Identity defaults: anonymous pulls bypass staleness admission.
        assert decoded.worker_id == -1
        assert decoded.progress == -1

    def test_pull_request_progress_header(self):
        msg = PullRequest(
            batch_id=7,
            keys=np.array([1, 2], dtype=np.uint64),
            worker_id=4,
            progress=123,
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.worker_id == 4
        assert decoded.progress == 123
        assert np.array_equal(decoded.keys, msg.keys)

    def test_pull_response(self):
        weights = np.arange(8, dtype=np.float32).reshape(2, 4)
        decoded = decode_message(encode_message(PullResponse(weights)))
        assert np.array_equal(decoded.weights, weights)

    def test_push_request(self):
        keys = np.array([9, 11], dtype=np.uint64)
        grads = np.ones((2, 4), dtype=np.float32)
        decoded = decode_message(encode_message(PushRequest(5, keys, grads)))
        assert decoded.batch_id == 5
        assert np.array_equal(decoded.keys, keys)
        assert np.array_equal(decoded.grads, grads)

    def test_push_request_dedup_header(self):
        keys = np.array([9], dtype=np.uint64)
        grads = np.ones((1, 4), dtype=np.float32)
        decoded = decode_message(
            encode_message(PushRequest(5, keys, grads, worker_id=3, seq=77))
        )
        assert decoded.worker_id == 3
        assert decoded.seq == 77
        assert decoded.dedup_key == (3, 77)
        assert PushRequest(5, keys, grads).dedup_key is None  # seq=0 opts out

    def test_pull_response_cache_stats(self):
        weights = np.zeros((2, 4), dtype=np.float32)
        decoded = decode_message(
            encode_message(PullResponse(weights, hits=5, misses=2, created=1))
        )
        assert (decoded.hits, decoded.misses, decoded.created) == (5, 2, 1)

    def test_checkpoint_request(self):
        decoded = decode_message(encode_message(CheckpointRequest(42)))
        assert decoded.batch_id == 42

    def test_checkpoint_request_signed(self):
        """-1 (untrained cluster) must travel so the server can reject it."""
        decoded = decode_message(encode_message(CheckpointRequest(-1)))
        assert decoded.batch_id == -1

    def test_status_response_detail(self):
        msg = StatusResponse(StatusResponse.ERR_CHECKPOINT, detail="no batch")
        decoded = decode_message(encode_message(msg))
        assert decoded.code == StatusResponse.ERR_CHECKPOINT
        assert decoded.detail == "no batch"
        assert not decoded.ok

    def test_status_response(self):
        decoded = decode_message(encode_message(StatusResponse(0, value=-5)))
        assert decoded.ok
        assert decoded.value == -5

    def test_empty_pull(self):
        msg = PullRequest(batch_id=0, keys=np.array([], dtype=np.uint64))
        decoded = decode_message(encode_message(msg))
        assert len(decoded.keys) == 0

    def test_decoded_arrays_are_readonly_views(self):
        """The ownership contract: decode is zero-copy, views are frozen.

        A consumer that needs to mutate must copy explicitly; writing
        through the view must fail loudly, never silently alias the
        received frame.
        """
        msg = PullRequest(batch_id=0, keys=np.array([1], dtype=np.uint64))
        decoded = decode_message(encode_message(msg))
        with pytest.raises(ValueError):
            decoded.keys[0] = 99
        owned = decoded.keys.copy()
        owned[0] = 99  # the documented escape hatch
        assert owned[0] == 99 and decoded.keys[0] == 1


class TestMessageValidation:
    def test_unknown_type(self):
        frame = bytes([0x7F]) + (0).to_bytes(4, "little")
        with pytest.raises(MessageError):
            decode_message(frame)

    def test_truncated_frame(self):
        with pytest.raises(MessageError):
            decode_message(b"\x01")

    def test_length_mismatch(self):
        frame = encode_message(CheckpointRequest(1))
        with pytest.raises(MessageError):
            decode_message(frame + b"extra")

    def test_truncated_body(self):
        msg = PullRequest(batch_id=7, keys=np.array([1, 2], dtype=np.uint64))
        body = msg.encode_body()[:-4]
        with pytest.raises(MessageError):
            PullRequest.decode_body(body)

    def test_checksum_detects_byte_flip(self):
        frame = bytearray(encode_message(CheckpointRequest(1)))
        frame[-1] ^= 0xFF  # damage the body; header length still matches
        with pytest.raises(MessageError, match="checksum"):
            decode_message(bytes(frame))

    def test_grads_keys_mismatch(self):
        with pytest.raises(MessageError):
            PushRequest(
                0, np.array([1], dtype=np.uint64), np.ones((2, 4), dtype=np.float32)
            ).encode_body()


class TestRpcChannel:
    def _echo_server(self):
        server = RpcServer()
        server.register(
            CheckpointRequest.TYPE,
            lambda req: StatusResponse(StatusResponse.OK, req.batch_id),
        )
        return server

    def test_call_roundtrip(self):
        channel = RpcChannel(self._echo_server())
        response = channel.call(CheckpointRequest(9))
        assert response.ok
        assert response.value == 9

    def test_stats_count_real_bytes(self):
        channel = RpcChannel(self._echo_server())
        channel.call(CheckpointRequest(1))
        expected_request = len(encode_message(CheckpointRequest(1)))
        expected_response = len(encode_message(StatusResponse(0, 1)))
        assert channel.stats.calls == 1
        assert channel.stats.request_bytes == expected_request
        assert channel.stats.response_bytes == expected_response

    def test_clock_advances_with_traffic(self):
        from repro.simulation.clock import SimClock

        clock = SimClock()
        channel = RpcChannel(self._echo_server(), clock=clock)
        channel.call(CheckpointRequest(1))
        assert clock.now > 0

    def test_unhandled_type_rejected(self):
        channel = RpcChannel(RpcServer())
        with pytest.raises(MessageError):
            channel.call(CheckpointRequest(1))

    def test_duplicate_handler_rejected(self):
        server = self._echo_server()
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            server.register(CheckpointRequest.TYPE, lambda req: None)


class TestRemotePSClient:
    def _configs(self):
        return (
            ServerConfig(
                num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=4
            ),
            CacheConfig(capacity_bytes=8 * DIM * 4),
        )

    def test_pull_matches_local_server(self):
        server_config, cache_config = self._configs()
        remote = RemotePSClient(server_config, cache_config)
        local = OpenEmbeddingServer(server_config, cache_config)
        keys = [3, 99, 3, 42]
        remote_weights = remote.pull(keys, 0).weights
        local_weights = local.pull(keys, 0).weights
        assert np.array_equal(remote_weights, local_weights)

    def test_staleness_rejection_is_typed_over_the_wire(self):
        """ERR_STALENESS decodes back into StalenessError client-side."""
        from repro.errors import StalenessError

        __, cache_config = self._configs()
        server_config = ServerConfig(
            num_nodes=2,
            embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22,
            seed=4,
            staleness_bound=1,
        )
        remote = RemotePSClient(server_config, cache_config)
        remote.pull([1, 2], 0, worker_id=0, progress=10)
        with pytest.raises(StalenessError):
            remote.pull([1, 2], 1, worker_id=1, progress=0)  # lag 10 > 1
        # Anonymous pulls keep bypassing admission entirely.
        remote.pull([1, 2], 2)

    def test_training_over_rpc_matches_local(self):
        server_config, cache_config = self._configs()
        remote = RemotePSClient(server_config, cache_config)
        local = OpenEmbeddingServer(server_config, cache_config)
        rng = np.random.default_rng(0)
        for batch in range(6):
            keys = sorted(rng.choice(30, size=5, replace=False).tolist())
            grads = rng.normal(0, 0.1, (5, DIM)).astype(np.float32)
            for backend in (remote, local):
                backend.pull(keys, batch)
                backend.maintain(batch)
                backend.push(keys, grads, batch)
        remote_state = remote.state_snapshot()
        local_state = local.state_snapshot()
        assert set(remote_state) == set(local_state)
        for key in local_state:
            assert np.array_equal(remote_state[key], local_state[key])

    def test_checkpoint_over_rpc(self):
        server_config, cache_config = self._configs()
        remote = RemotePSClient(server_config, cache_config)
        keys = [1, 2, 3]
        remote.pull(keys, 0)
        remote.maintain(0)
        remote.push(keys, np.ones((3, DIM), dtype=np.float32), 0)
        assert remote.request_checkpoint() == 0
        remote.complete_pending_checkpoints()
        assert all(n.coordinator.last_completed == 0 for n in remote.nodes)

    def test_wire_bytes_accumulate(self):
        server_config, cache_config = self._configs()
        remote = RemotePSClient(server_config, cache_config)
        remote.pull([1, 2, 3, 4], 0)
        bytes_after_pull = remote.wire_bytes()
        assert bytes_after_pull > 4 * DIM * 4  # at least the weights
        remote.maintain(0)
        remote.push([1, 2], np.ones((2, DIM), dtype=np.float32), 0)
        assert remote.wire_bytes() > bytes_after_pull

    def test_simulated_time_advances(self):
        server_config, cache_config = self._configs()
        remote = RemotePSClient(server_config, cache_config)
        remote.pull([1], 0)
        assert remote.clock.now > 0
