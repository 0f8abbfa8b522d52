"""Fault-tolerant RPC: retries, timeouts, dedup and wire-error semantics.

Covers the network-as-failure-domain subsystem: seeded deterministic
fault schedules, client retry/backoff/timeout budgets charged to the
simulated clock, at-most-once push application under duplicated and
retried delivery, and the wire-error discipline that turns server-side
exceptions into typed client-side errors.
"""

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    ConfigError,
    NetworkFaultConfig,
    RetryConfig,
    ServerConfig,
)
from repro.core.server import OpenEmbeddingServer
from repro.errors import (
    CheckpointError,
    KeyNotFoundError,
    RpcError,
    RpcTimeoutError,
)
from repro.failure.network_faults import FaultyLink
from repro.network.frontend import RemotePSClient
from repro.network.service import PSNodeService
from repro.network.messages import (
    CheckpointRequest,
    MessageError,
    PushRequest,
    StatusResponse,
    decode_message,
    encode_message,
)
from repro.network.rpc import RpcChannel, RpcServer
from repro.simulation.clock import SimClock
from repro.simulation.network import NetworkModel

DIM = 4


def _configs(num_nodes: int = 2):
    return (
        ServerConfig(
            num_nodes=num_nodes, embedding_dim=DIM,
            pmem_capacity_bytes=1 << 22, seed=4,
        ),
        CacheConfig(capacity_bytes=8 * DIM * 4),
    )


def _echo_server():
    server = RpcServer()
    server.register(
        CheckpointRequest.TYPE,
        lambda req: StatusResponse(StatusResponse.OK, req.batch_id),
    )
    return server


def _train(client, batches: int = 12, keyspace: int = 40, seed: int = 0):
    rng = np.random.default_rng(seed)
    for batch in range(batches):
        keys = sorted(rng.choice(keyspace, size=6, replace=False).tolist())
        grads = rng.normal(0, 0.1, (6, DIM)).astype(np.float32)
        client.pull(keys, batch)
        client.maintain(batch)
        client.push(keys, grads, batch)
    return client


FAULTS = NetworkFaultConfig(
    drop_rate=0.08,
    duplicate_rate=0.06,
    corrupt_rate=0.04,
    delay_rate=0.1,
    delay_mean_s=5e-3,
    seed=11,
)
RETRY = RetryConfig(
    max_attempts=12, attempt_timeout_s=0.05, call_timeout_s=5.0, seed=1
)


class TestConfigValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigError):
            NetworkFaultConfig(drop_rate=1.5)
        with pytest.raises(ConfigError):
            NetworkFaultConfig(duplicate_rate=-0.1)

    def test_retry_bounds(self):
        with pytest.raises(ConfigError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryConfig(attempt_timeout_s=1.0, call_timeout_s=0.5)
        with pytest.raises(ConfigError):
            RetryConfig(jitter=2.0)

    def test_backoff_schedule_is_capped(self):
        retry = RetryConfig(
            max_attempts=6, attempt_timeout_s=0.01, call_timeout_s=1.0,
            base_backoff_s=1e-3, max_backoff_s=6e-3, jitter=0.0,
        )
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
            SimClock(),
            retry=retry,
        )
        with pytest.raises(RpcTimeoutError):
            channel.call(CheckpointRequest(1))
        # after attempts 1..5: 1 ms, doubling, capped at 6 ms
        assert channel.stats.backoff_seconds == pytest.approx(
            (1 + 2 + 4 + 6 + 6) * 1e-3
        )

    def test_any_faults_flag(self):
        assert not NetworkFaultConfig().any_faults
        assert NetworkFaultConfig(drop_rate=0.01).any_faults


class TestFaultyLink:
    def test_perfect_config_is_transparent(self):
        link = FaultyLink(NetworkModel(), NetworkFaultConfig(seed=3))
        frame = encode_message(CheckpointRequest(1))
        delivery = link.transfer(frame, "request")
        assert delivery.copies == (frame,)
        assert link.stats.total == 0

    def test_drop_everything(self):
        link = FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0))
        delivery = link.transfer(encode_message(CheckpointRequest(1)), "request")
        assert delivery.copies == ()
        assert link.stats.drops == 1

    def test_dropped_bytes_still_charged_to_network(self):
        network = NetworkModel()
        link = FaultyLink(network, NetworkFaultConfig(drop_rate=1.0))
        frame = encode_message(CheckpointRequest(1))
        link.transfer(frame, "request")
        assert network.bytes_sent == len(frame)

    def test_duplicate_everything(self):
        link = FaultyLink(NetworkModel(), NetworkFaultConfig(duplicate_rate=1.0))
        frame = encode_message(CheckpointRequest(1))
        delivery = link.transfer(frame, "request")
        assert delivery.copies == (frame, frame)
        assert link.stats.duplicates == 1

    def test_corruption_is_always_detected(self):
        """A flipped byte can never decode into a valid message."""
        link = FaultyLink(
            NetworkModel(), NetworkFaultConfig(corrupt_rate=1.0, seed=0)
        )
        frame = encode_message(
            PushRequest(
                0,
                np.array([1, 2], dtype=np.uint64),
                np.ones((2, DIM), dtype=np.float32),
            )
        )
        for _ in range(50):  # every corrupted position must be caught
            delivery = link.transfer(frame, "request")
            (damaged,) = delivery.copies
            assert damaged != frame
            with pytest.raises(MessageError):
                decode_message(damaged)

    def test_same_seed_same_schedule(self):
        frame = encode_message(CheckpointRequest(1))
        outcomes = []
        for _ in range(2):
            link = FaultyLink(
                NetworkModel(),
                NetworkFaultConfig(
                    drop_rate=0.3, duplicate_rate=0.3, delay_rate=0.3, seed=5
                ),
            )
            outcomes.append(
                [
                    (len(link.transfer(frame, "request").copies))
                    for _ in range(40)
                ]
            )
        assert outcomes[0] == outcomes[1]


class TestRetrySemantics:
    def test_retries_recover_from_drops(self):
        clock = SimClock()
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=0.5, seed=2)),
            clock,
            retry=RetryConfig(max_attempts=20, call_timeout_s=10.0),
        )
        for batch in range(10):
            response = channel.call(CheckpointRequest(batch))
            assert response.ok and response.value == batch
        assert channel.stats.retries > 0
        assert channel.stats.timeouts == 0

    def test_total_loss_raises_timeout(self):
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
            SimClock(),
            retry=RetryConfig(max_attempts=4, attempt_timeout_s=0.01,
                              call_timeout_s=0.1),
        )
        with pytest.raises(RpcTimeoutError) as excinfo:
            channel.call(CheckpointRequest(1))
        assert excinfo.value.attempts == 4
        assert excinfo.value.spent_seconds > 0
        assert isinstance(excinfo.value, RpcError)
        assert channel.stats.timeouts == 1
        assert channel.stats.attempts == 4

    def test_call_budget_caps_attempts(self):
        """The per-call budget can exhaust before max_attempts does."""
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
            SimClock(),
            retry=RetryConfig(max_attempts=100, attempt_timeout_s=0.02,
                              call_timeout_s=0.05, base_backoff_s=0.0,
                              max_backoff_s=0.0, jitter=0.0),
        )
        with pytest.raises(RpcTimeoutError) as excinfo:
            channel.call(CheckpointRequest(1))
        # 0.02 + 0.02 + remaining 0.01 of the budget = 3 attempts.
        assert excinfo.value.attempts == 3
        assert excinfo.value.spent_seconds == pytest.approx(0.05)

    def test_backoff_and_waits_advance_the_clock(self):
        clock = SimClock()
        retry = RetryConfig(
            max_attempts=3, attempt_timeout_s=0.01, call_timeout_s=0.1,
            base_backoff_s=1e-3, max_backoff_s=1e-2,
            jitter=0.0,
        )
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
            clock,
            retry=retry,
        )
        with pytest.raises(RpcTimeoutError):
            channel.call(CheckpointRequest(1))
        # 3 loss timeouts + backoffs after attempts 1 and 2.
        expected = 3 * 0.01 + 1e-3 + 2e-3
        assert clock.now == pytest.approx(expected)
        assert channel.stats.backoff_seconds == pytest.approx(3e-3)

    def test_failed_attempts_still_count_request_bytes(self):
        """Regression: lost traffic must not vanish from the stats."""
        channel = RpcChannel(
            _echo_server(),
            FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
            SimClock(),
            retry=RetryConfig(max_attempts=3, attempt_timeout_s=0.01,
                              call_timeout_s=0.1),
        )
        frame_len = len(encode_message(CheckpointRequest(1)))
        with pytest.raises(RpcTimeoutError):
            channel.call(CheckpointRequest(1))
        assert channel.stats.request_bytes == 3 * frame_len
        assert channel.stats.calls == 1

    def test_error_responses_count_response_bytes(self):
        """An error-coded reply still moved bytes over the wire."""
        channel = RpcChannel(RpcServer())  # nothing registered
        with pytest.raises(MessageError):
            channel.call(CheckpointRequest(1))
        assert channel.stats.request_bytes > 0
        assert channel.stats.response_bytes > 0
        assert channel.stats.wire_errors == 1

    def test_jitter_is_deterministic_per_seed(self):
        def trace(seed):
            clock = SimClock()
            channel = RpcChannel(
                _echo_server(),
                FaultyLink(NetworkModel(), NetworkFaultConfig(drop_rate=1.0)),
                clock,
                retry=RetryConfig(max_attempts=5, attempt_timeout_s=0.01,
                                  call_timeout_s=1.0, jitter=0.5, seed=seed),
            )
            with pytest.raises(RpcTimeoutError):
                channel.call(CheckpointRequest(1))
            return clock.now

        assert trace(3) == trace(3)
        assert trace(3) != trace(4)


class TestWireErrorDiscipline:
    def test_handler_exception_becomes_error_frame(self):
        server = RpcServer()

        def failing_handler(request):
            raise CheckpointError("nothing to checkpoint")

        server.register(CheckpointRequest.TYPE, failing_handler)
        reply = decode_message(server.dispatch(encode_message(CheckpointRequest(1))))
        assert isinstance(reply, StatusResponse)
        assert reply.code == StatusResponse.ERR_CHECKPOINT
        assert "nothing to checkpoint" in reply.detail
        assert server.handler_errors == 1

    def test_client_reraises_typed_error(self):
        server = RpcServer()
        server.register(
            CheckpointRequest.TYPE,
            lambda req: (_ for _ in ()).throw(CheckpointError("boom")),
        )
        channel = RpcChannel(server)
        with pytest.raises(CheckpointError, match="boom"):
            channel.call(CheckpointRequest(1))

    def test_damaged_request_is_retried_not_fatal(self):
        """ERR_MESSAGE replies are retryable: resend the pristine frame."""
        server = _echo_server()
        real_dispatch = server.dispatch
        damage_first = {"armed": True}

        def flaky_dispatch(frame):
            if damage_first.pop("armed", False):
                return real_dispatch(frame[:-1] + bytes([frame[-1] ^ 0xFF]))
            return real_dispatch(frame)

        server.dispatch = flaky_dispatch
        channel = RpcChannel(server, retry=RetryConfig(max_attempts=3))
        response = channel.call(CheckpointRequest(9))
        assert response.ok and response.value == 9
        assert channel.stats.retries == 1
        assert channel.stats.wire_errors == 1

    def test_untrained_checkpoint_is_typed_over_the_wire(self):
        """Regression: CheckpointError used to escape dispatch raw."""
        remote = RemotePSClient(*_configs())
        with pytest.raises(CheckpointError):
            remote.request_checkpoint()
        assert all(
            channel.stats.wire_errors >= 1 for channel in remote.channels[:1]
        )

    def test_key_not_found_travels_typed(self):
        """A push of a key no pull created is refused with the typed
        error, across the wire."""
        remote = RemotePSClient(*_configs())
        with pytest.raises(KeyNotFoundError):
            remote.push([123], np.ones((1, DIM), dtype=np.float32), 0)


class TestPushIdempotency:
    def test_duplicate_frame_applies_once(self):
        server_config, cache_config = _configs(num_nodes=1)
        service = PSNodeService(PSNode_like(server_config, cache_config))
        keys = [1, 2, 3]
        service.node.pull(keys, 0)
        service.node.maintain(0)
        before = {k: service.node.read_weights(k).copy() for k in keys}
        frame = encode_message(
            PushRequest(
                batch_id=0,
                keys=np.array(keys, dtype=np.uint64),
                grads=np.ones((3, DIM), dtype=np.float32),
                worker_id=7,
                seq=1,
            )
        )
        first = decode_message(service.server.dispatch(frame))
        replay = decode_message(service.server.dispatch(frame))
        assert first == replay  # cached reply replayed verbatim
        assert service.dup_suppressed == 1
        once = {k: service.node.read_weights(k).copy() for k in keys}
        # Applying the same frame a third time still changes nothing.
        service.server.dispatch(frame)
        for k in keys:
            assert not np.array_equal(before[k], once[k])
            assert np.array_equal(once[k], service.node.read_weights(k))

    def test_seq_zero_opts_out_of_dedup(self):
        server_config, cache_config = _configs(num_nodes=1)
        service = PSNodeService(PSNode_like(server_config, cache_config))
        keys = [5]
        service.node.pull(keys, 0)
        service.node.maintain(0)
        frame = encode_message(
            PushRequest(
                batch_id=0,
                keys=np.array(keys, dtype=np.uint64),
                grads=np.ones((1, DIM), dtype=np.float32),
            )
        )
        after_one = None
        service.server.dispatch(frame)
        after_one = service.node.read_weights(5).copy()
        service.server.dispatch(frame)
        assert not np.array_equal(after_one, service.node.read_weights(5))
        assert service.dup_suppressed == 0

    def test_window_eviction_bounds_memory(self, monkeypatch):
        monkeypatch.setattr("repro.network.service.DEFAULT_DEDUP_WINDOW", 4)
        server_config, cache_config = _configs(num_nodes=1)
        service = PSNodeService(PSNode_like(server_config, cache_config))
        service.node.pull([1], 0)
        service.node.maintain(0)
        for seq in range(1, 10):
            frame = encode_message(
                PushRequest(
                    batch_id=0,
                    keys=np.array([1], dtype=np.uint64),
                    grads=np.ones((1, DIM), dtype=np.float32),
                    seq=seq,
                )
            )
            service.server.dispatch(frame)
        assert len(service._push_replies) == 4


class TestCheckpointIdempotency:
    def test_duplicate_checkpoint_frame_replays_ok(self):
        """A duplicated/retried CheckpointRequest must not surface the
        server's 'not newer than queued' rejection to the client whose
        first copy already landed."""
        server_config, cache_config = _configs(num_nodes=1)
        service = PSNodeService(PSNode_like(server_config, cache_config))
        keys = [1, 2]
        service.node.pull(keys, 0)
        service.node.maintain(0)
        service.node.push(keys, np.ones((2, DIM), dtype=np.float32), 0)
        frame = encode_message(CheckpointRequest(batch_id=0))
        first = decode_message(service.server.dispatch(frame))
        assert isinstance(first, StatusResponse)
        assert first.code == StatusResponse.OK
        replay = decode_message(service.server.dispatch(frame))
        assert replay == first  # cached OK, not a CheckpointError frame
        assert service.dup_suppressed == 1
        # exactly one checkpoint is queued and completes
        assert service.node.cache.complete_pending_checkpoints() == [0]
        assert service.node.cache.complete_pending_checkpoints() == []


class TestFaultyTrainingEquivalence:
    def test_training_under_faults_matches_in_process_server(self):
        """Acceptance: drop+duplicate+delay+corrupt, bit-identical state."""
        server_config, cache_config = _configs()
        remote = RemotePSClient(
            server_config, cache_config, faults=FAULTS, retry=RETRY
        )
        local = OpenEmbeddingServer(server_config, cache_config)
        rng = np.random.default_rng(0)
        for batch in range(20):
            keys = sorted(rng.choice(60, size=8, replace=False).tolist())
            grads = rng.normal(0, 0.1, (8, DIM)).astype(np.float32)
            for backend in (remote, local):
                backend.pull(keys, batch)
                backend.maintain(batch)
                backend.push(keys, grads, batch)
        remote_state = remote.state_snapshot()
        local_state = local.state_snapshot()
        assert set(remote_state) == set(local_state)
        for key in local_state:
            assert np.array_equal(remote_state[key], local_state[key])
        reliability = remote.reliability()
        assert reliability.faults_injected > 0
        assert reliability.retries > 0  # the wire really was lossy

    def test_same_seed_same_retry_trace(self):
        def run():
            client = _train(
                RemotePSClient(*_configs(), faults=FAULTS, retry=RETRY)
            )
            stats = client.reliability()
            return (
                stats.retries,
                stats.timeouts,
                stats.dup_suppressed,
                stats.backoff_seconds,
                stats.faults_injected,
                client.wire_bytes(),
                client.clock.now,
            )

        assert run() == run()

    def test_different_seed_different_trace(self):
        def run(seed):
            faults = NetworkFaultConfig(
                drop_rate=0.15, duplicate_rate=0.1, delay_rate=0.1,
                delay_mean_s=5e-3, seed=seed,
            )
            client = _train(RemotePSClient(*_configs(), faults=faults, retry=RETRY))
            return client.fault_stats().summary(), client.clock.now

        assert run(1) != run(2)

    def test_faulty_run_costs_more_wire_and_time(self):
        clean = _train(RemotePSClient(*_configs()))
        faulty = _train(RemotePSClient(*_configs(), faults=FAULTS, retry=RETRY))
        assert faulty.wire_bytes() > clean.wire_bytes()
        assert faulty.clock.now > clean.clock.now
        assert clean.reliability().retries == 0
        assert clean.reliability().faults_injected == 0

    def test_pull_stats_survive_the_wire(self):
        """Regression: remote pulls used to report hits=misses=0."""
        server_config, cache_config = _configs()
        remote = RemotePSClient(server_config, cache_config)
        local = OpenEmbeddingServer(server_config, cache_config)
        keys = [3, 99, 3, 42, 7]
        remote_result = remote.pull(keys, 0)
        local_result = local.pull(keys, 0)
        assert remote_result.created == local_result.created
        assert remote_result.hits == local_result.hits
        assert remote_result.misses == local_result.misses
        assert remote_result.accesses == len(set(keys))  # one per distinct key
        # Second pull of the same keys must show cache hits remotely.
        remote.maintain(0)
        again = remote.pull(keys, 1)
        assert again.hits > 0


def PSNode_like(server_config, cache_config):
    """A real PSNode for service-level tests (import kept local)."""
    from repro.core.ps_node import PSNode

    return PSNode(0, server_config, cache_config)
